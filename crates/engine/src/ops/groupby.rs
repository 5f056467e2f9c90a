//! `group.*` — grouping for aggregation.
//!
//! `group.group(col)` assigns each row a group id (dense oids in order of
//! first occurrence) and returns `(groups, extents, histo)`:
//! * `groups: bat[:oid]` — group id per input row,
//! * `extents: bat[:oid]` — position of each group's first row,
//! * `histo: bat[:int]` — rows per group.
//!
//! `group.subgroup(col, groups)` refines an existing grouping with an
//! additional column (multi-column GROUP BY chains these).
//!
//! String columns group on their dictionary codes, which identify strings
//! within the column's one dictionary. `group.group` maps codes through a
//! `dict.len()` table, no larger than the dictionary itself.
//! `group.subgroup` maps `(previous group, code)` pairs through a
//! `groups × dict.len()` table, and hashes the pairs instead when that
//! table would be larger than the input. Every path numbers groups in
//! order of first occurrence, so all give the same outputs.

use std::collections::HashMap;
use std::hash::Hash;

use crate::bat::{Bat, ColumnData, ColumnView};
use crate::error::EngineError;
use crate::rt::RuntimeValue;
use crate::Result;

/// Hashable row key over one column.
#[derive(Hash, PartialEq, Eq, Clone, Copy)]
enum Key {
    Int(i64),
    Bits(u64),
    Code(u32),
    Bool(bool),
}

fn key_at(col: &ColumnView<'_>, i: usize) -> Key {
    match col {
        ColumnView::Int(v) => Key::Int(v[i]),
        ColumnView::Oid(v) => Key::Int(v[i] as i64),
        ColumnView::Date(v) => Key::Int(v[i] as i64),
        ColumnView::Dbl(v) => Key::Bits(v[i].to_bits()),
        ColumnView::Str(v) => Key::Code(v.codes()[i]),
        ColumnView::Bit(v) => Key::Bool(v[i]),
    }
}

/// The `(groups, extents, histo)` triple under construction.
struct Grouping {
    groups: Vec<u64>,
    extents: Vec<u64>,
    histo: Vec<i64>,
}

impl Grouping {
    fn with_capacity(n: usize) -> Self {
        Grouping {
            groups: Vec::with_capacity(n),
            extents: Vec::new(),
            histo: Vec::new(),
        }
    }

    /// Place the next row, `i`, in group `id`; `id` equal to the number of
    /// groups so far opens a new group at `i`.
    fn push(&mut self, i: usize, id: u64) {
        if id as usize == self.histo.len() {
            self.extents.push(i as u64);
            self.histo.push(0);
        }
        self.histo[id as usize] += 1;
        self.groups.push(id);
    }

    fn into_values(self) -> Vec<RuntimeValue> {
        vec![
            RuntimeValue::bat(Bat::new(ColumnData::Oid(self.groups))),
            RuntimeValue::bat(Bat::new(ColumnData::Oid(self.extents))),
            RuntimeValue::bat(Bat::new(ColumnData::Int(self.histo))),
        ]
    }
}

/// Group rows by hashed keys.
fn group_hashed<K: Hash + Eq>(keys: impl Iterator<Item = K>, n: usize) -> Grouping {
    let mut ids: HashMap<K, u64> = HashMap::new();
    let mut out = Grouping::with_capacity(n);
    for (i, k) in keys.enumerate() {
        let next = ids.len() as u64;
        let id = *ids.entry(k).or_insert(next);
        out.push(i, id);
    }
    out
}

/// Group rows by their slot in a dense table of `table` slots.
fn group_dense(slots: impl Iterator<Item = usize>, table: usize, n: usize) -> Grouping {
    let mut ids = vec![u64::MAX; table];
    let mut out = Grouping::with_capacity(n);
    for (i, s) in slots.enumerate() {
        let id = &mut ids[s];
        if *id == u64::MAX {
            *id = out.histo.len() as u64;
        }
        out.push(i, *id);
    }
    out
}

/// `group.group(col)`.
pub fn group(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "group.group";
    let col = super::one_arg(op, args)?.as_bat(op)?;
    let n = col.len();
    let view = col.view();
    let out = match view {
        ColumnView::Str(v) => group_dense(v.codes().iter().map(|&c| c as usize), v.dict().len(), n),
        _ => group_hashed((0..n).map(|i| key_at(&view, i)), n),
    };
    Ok(out.into_values())
}

/// `group.subgroup(col, groups)` — refine `groups` by `col`.
pub fn subgroup(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "group.subgroup";
    if args.len() != 2 {
        return Err(EngineError::Arity {
            op: op.into(),
            msg: format!("expected 2 args, got {}", args.len()),
        });
    }
    let col = args[0].as_bat(op)?;
    let prev = args[1].as_bat(op)?.as_oids()?;
    if col.len() != prev.len() {
        return Err(EngineError::LengthMismatch {
            op: op.into(),
            left: col.len(),
            right: prev.len(),
        });
    }
    let n = col.len();
    let view = col.view();
    // The refined key pairs the previous group with this column's key. A
    // dense table over string pairs pays off only when it is no larger
    // than the input.
    let out = match view {
        ColumnView::Str(v) => {
            let d = v.dict().len();
            let table = prev
                .iter()
                .max()
                .and_then(|&m| usize::try_from(m).ok()?.checked_add(1)?.checked_mul(d));
            let pairs = prev.iter().zip(v.codes());
            match table {
                Some(t) if t <= n => {
                    group_dense(pairs.map(|(&p, &c)| p as usize * d + c as usize), t, n)
                }
                _ => group_hashed(pairs, n),
            }
        }
        _ => group_hashed(
            prev.iter().enumerate().map(|(i, &p)| (p, key_at(&view, i))),
            n,
        ),
    };
    Ok(out.into_values())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rb(b: Bat) -> RuntimeValue {
        RuntimeValue::bat(b)
    }

    fn oids(v: &RuntimeValue) -> Vec<u64> {
        v.as_bat("t").unwrap().as_oids().unwrap().to_vec()
    }

    fn ints(v: &RuntimeValue) -> Vec<i64> {
        v.as_bat("t").unwrap().as_ints().unwrap().to_vec()
    }

    #[test]
    fn group_assigns_first_occurrence_ids() {
        let col = Bat::strs(vec![
            "a".into(),
            "b".into(),
            "a".into(),
            "c".into(),
            "b".into(),
        ]);
        let out = group(&[rb(col)]).unwrap();
        assert_eq!(oids(&out[0]), vec![0, 1, 0, 2, 1]);
        assert_eq!(oids(&out[1]), vec![0, 1, 3]);
        assert_eq!(ints(&out[2]), vec![2, 2, 1]);
    }

    #[test]
    fn group_on_ints_and_dbls() {
        let out = group(&[rb(Bat::ints(vec![7, 7, 7]))]).unwrap();
        assert_eq!(oids(&out[0]), vec![0, 0, 0]);
        assert_eq!(ints(&out[2]), vec![3]);
        let out = group(&[rb(Bat::dbls(vec![0.5, 0.25, 0.5]))]).unwrap();
        assert_eq!(oids(&out[0]), vec![0, 1, 0]);
    }

    #[test]
    fn group_empty() {
        let out = group(&[rb(Bat::ints(vec![]))]).unwrap();
        assert!(oids(&out[0]).is_empty());
        assert!(oids(&out[1]).is_empty());
        assert!(ints(&out[2]).is_empty());
    }

    #[test]
    fn subgroup_refines() {
        // Rows: (x=1,y=a), (x=1,y=b), (x=2,y=a), (x=1,y=a)
        let x = Bat::ints(vec![1, 1, 2, 1]);
        let gx = group(&[rb(x)]).unwrap();
        let y = Bat::strs(vec!["a".into(), "b".into(), "a".into(), "a".into()]);
        let out = subgroup(&[rb(y), gx[0].clone()]).unwrap();
        // Distinct (x,y) pairs: (1,a)=0, (1,b)=1, (2,a)=2, (1,a)=0
        assert_eq!(oids(&out[0]), vec![0, 1, 2, 0]);
        assert_eq!(oids(&out[1]), vec![0, 1, 2]);
        assert_eq!(ints(&out[2]), vec![2, 1, 1]);
    }

    #[test]
    fn subgroup_length_mismatch() {
        let y = Bat::ints(vec![1]);
        let g = Bat::oids(vec![0, 0]);
        assert!(matches!(
            subgroup(&[rb(y), rb(g)]),
            Err(EngineError::LengthMismatch { .. })
        ));
    }
}

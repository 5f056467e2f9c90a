//! Additional `algebra.*`/`batcalc.*` operators backing the SQL front
//! end's LIKE / IN / DISTINCT features: pattern selects, candidate-list
//! set operations, and duplicate elimination.

use crate::bat::{Bat, ColumnData, ColumnView};
use crate::error::EngineError;
use crate::rt::RuntimeValue;
use crate::Result;

use super::expect_str;

/// SQL LIKE matcher: `%` matches any run (including empty), `_` exactly
/// one character. Case-sensitive, no escape sequences (TPC-H patterns
/// don't use them).
pub fn like_match(s: &str, pattern: &str) -> bool {
    // Iterative two-pointer algorithm with backtracking on `%`.
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pattern idx after %, s idx)
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some((pi + 1, si));
            pi += 1;
        } else if let Some((sp, ss)) = star {
            // Backtrack: let the last % absorb one more character.
            pi = sp;
            si = ss + 1;
            star = Some((sp, ss + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

/// `algebra.likeselect(col, cand, pattern:str, anti:bit)` — candidate
/// list of rows whose string (doesn't, when `anti`) match the pattern.
pub fn likeselect(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "algebra.likeselect";
    if args.len() != 4 {
        return Err(EngineError::Arity {
            op: op.into(),
            msg: format!("expected 4 args, got {}", args.len()),
        });
    }
    let col = args[0].as_bat(op)?;
    let cand = args[1].as_bat(op)?.as_oids()?;
    let pattern = expect_str(op, &args[2])?;
    let anti = args[3].as_scalar(op)?.as_bit().unwrap_or(false);
    let strings = match col.view() {
        ColumnView::Str(v) => v,
        other => {
            return Err(EngineError::TypeMismatch {
                op: op.into(),
                expected: "bat[:str]".into(),
                got: other.tail_type().to_string(),
            })
        }
    };
    let mut out = Vec::new();
    for &o in cand {
        let i = o as usize;
        if i >= strings.len() {
            return Err(EngineError::OidOutOfRange {
                oid: o,
                len: strings.len(),
            });
        }
        if like_match(strings.get(i), &pattern) != anti {
            out.push(o);
        }
    }
    Ok(vec![RuntimeValue::bat(Bat::new_sorted(ColumnData::Oid(
        out,
    )))])
}

/// `batcalc.like(col, pattern:str)` — bit mask of LIKE matches.
pub fn batcalc_like(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "batcalc.like";
    if args.len() != 2 {
        return Err(EngineError::Arity {
            op: op.into(),
            msg: format!("expected 2 args, got {}", args.len()),
        });
    }
    let col = args[0].as_bat(op)?;
    let pattern = expect_str(op, &args[1])?;
    let strings = match col.view() {
        ColumnView::Str(v) => v,
        other => {
            return Err(EngineError::TypeMismatch {
                op: op.into(),
                expected: "bat[:str]".into(),
                got: other.tail_type().to_string(),
            })
        }
    };
    let out: Vec<bool> = strings.iter().map(|s| like_match(s, &pattern)).collect();
    Ok(vec![RuntimeValue::bat(Bat::new(ColumnData::Bit(out)))])
}

/// `algebra.intersect(a, b)` — oids present in both candidate lists
/// (inputs sorted; output sorted).
pub fn intersect(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "algebra.intersect";
    if args.len() != 2 {
        return Err(EngineError::Arity {
            op: op.into(),
            msg: format!("expected 2 args, got {}", args.len()),
        });
    }
    let a = args[0].as_bat(op)?.as_oids()?;
    let b = args[1].as_bat(op)?.as_oids()?;
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    Ok(vec![RuntimeValue::bat(Bat::new_sorted(ColumnData::Oid(
        out,
    )))])
}

/// `algebra.union(a, b)` — merged candidate lists, deduplicated
/// (inputs sorted; output sorted). The OR of two selections.
pub fn union(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "algebra.union";
    if args.len() != 2 {
        return Err(EngineError::Arity {
            op: op.into(),
            msg: format!("expected 2 args, got {}", args.len()),
        });
    }
    let a = args[0].as_bat(op)?.as_oids()?;
    let b = args[1].as_bat(op)?.as_oids()?;
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => {
                if x <= y {
                    i += 1;
                    if x == y {
                        j += 1;
                    }
                    x
                } else {
                    j += 1;
                    y
                }
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => break,
        };
        if out.last() != Some(&next) {
            out.push(next);
        }
    }
    Ok(vec![RuntimeValue::bat(Bat::new_sorted(ColumnData::Oid(
        out,
    )))])
}

/// `algebra.unique(col)` — positions of each value's first occurrence,
/// in position order (DISTINCT's kernel).
pub fn unique(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "algebra.unique";
    let col = super::one_arg(op, args)?.as_bat(op)?;
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for i in 0..col.len() {
        let key = match col.view() {
            ColumnView::Int(v) => format!("i{}", v[i]),
            ColumnView::Oid(v) => format!("o{}", v[i]),
            ColumnView::Date(v) => format!("d{}", v[i]),
            ColumnView::Bit(v) => format!("b{}", v[i]),
            ColumnView::Dbl(v) => format!("f{}", v[i].to_bits()),
            ColumnView::Str(v) => format!("s{}", v.get(i)),
        };
        if seen.insert(key) {
            out.push(i as u64);
        }
    }
    Ok(vec![RuntimeValue::bat(Bat::new_sorted(ColumnData::Oid(
        out,
    )))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use stetho_mal::Value;

    fn rb(b: Bat) -> RuntimeValue {
        RuntimeValue::bat(b)
    }

    fn rs(s: &str) -> RuntimeValue {
        RuntimeValue::Scalar(Value::Str(s.into()))
    }

    fn rbit(b: bool) -> RuntimeValue {
        RuntimeValue::Scalar(Value::Bit(b))
    }

    fn oids(v: &RuntimeValue) -> Vec<u64> {
        v.as_bat("t").unwrap().as_oids().unwrap().to_vec()
    }

    #[test]
    fn like_matcher_semantics() {
        assert!(like_match("PROMO TIN", "PROMO%"));
        assert!(like_match("PROMO", "PROMO%"));
        assert!(!like_match("STANDARD", "PROMO%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abbc", "a_c"));
        assert!(like_match("anything", "%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("xay", "%a%"));
        assert!(like_match("aa", "%a"));
        assert!(like_match("banana", "%an%an%"));
        assert!(!like_match("banana", "%x%"));
        assert!(like_match("exact", "exact"));
        assert!(!like_match("exact!", "exact"));
    }

    #[test]
    fn likeselect_filters() {
        let col = Bat::strs(vec![
            "PROMO TIN".into(),
            "ECONOMY".into(),
            "PROMO BRASS".into(),
        ]);
        let cand = Bat::dense_oids(3);
        let out =
            likeselect(&[rb(col.clone()), rb(cand.clone()), rs("PROMO%"), rbit(false)]).unwrap();
        assert_eq!(oids(&out[0]), vec![0, 2]);
        // anti = NOT LIKE.
        let out = likeselect(&[rb(col), rb(cand), rs("PROMO%"), rbit(true)]).unwrap();
        assert_eq!(oids(&out[0]), vec![1]);
    }

    #[test]
    fn batcalc_like_mask() {
        let col = Bat::strs(vec!["MAIL".into(), "SHIP".into(), "RAIL".into()]);
        let out = batcalc_like(&[rb(col), rs("%AIL")]).unwrap();
        assert_eq!(
            out[0].as_bat("t").unwrap().as_bits().unwrap(),
            &[true, false, true]
        );
    }

    #[test]
    fn intersect_and_union() {
        let a = Bat::oids(vec![1, 3, 5, 7]);
        let b = Bat::oids(vec![2, 3, 5, 8]);
        let out = intersect(&[rb(a.clone()), rb(b.clone())]).unwrap();
        assert_eq!(oids(&out[0]), vec![3, 5]);
        let out = union(&[rb(a), rb(b)]).unwrap();
        assert_eq!(oids(&out[0]), vec![1, 2, 3, 5, 7, 8]);
    }

    #[test]
    fn set_ops_with_empty() {
        let a = Bat::oids(vec![]);
        let b = Bat::oids(vec![1, 2]);
        assert_eq!(
            oids(&intersect(&[rb(a.clone()), rb(b.clone())]).unwrap()[0]),
            Vec::<u64>::new()
        );
        assert_eq!(oids(&union(&[rb(a), rb(b)]).unwrap()[0]), vec![1, 2]);
    }

    #[test]
    fn unique_first_occurrences() {
        let col = Bat::strs(vec![
            "a".into(),
            "b".into(),
            "a".into(),
            "c".into(),
            "b".into(),
        ]);
        let out = unique(&[rb(col)]).unwrap();
        assert_eq!(oids(&out[0]), vec![0, 1, 3]);
        let ints = Bat::ints(vec![5, 5, 5]);
        assert_eq!(oids(&unique(&[rb(ints)]).unwrap()[0]), vec![0]);
        let empty = Bat::ints(vec![]);
        assert_eq!(oids(&unique(&[rb(empty)]).unwrap()[0]), Vec::<u64>::new());
    }

    #[test]
    fn likeselect_rejects_non_strings() {
        let col = Bat::ints(vec![1]);
        let cand = Bat::dense_oids(1);
        assert!(likeselect(&[rb(col), rb(cand), rs("%"), rbit(false)]).is_err());
    }
}

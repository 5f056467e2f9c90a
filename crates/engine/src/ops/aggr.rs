//! `aggr.*` — plain and grouped aggregation.
//!
//! Plain aggregates (`sum`, `count`, `avg`, `min`, `max`) reduce a BAT to
//! a scalar, optionally restricted to a candidate list. Grouped variants
//! (`subsum` etc.) take `(values, groups, extents)` from `group.group`
//! and return one value per group.

use stetho_mal::{MalType, Value};

use crate::bat::{Bat, ColumnData, ColumnView};
use crate::error::EngineError;
use crate::rt::RuntimeValue;
use crate::Result;

/// Resolve the optional candidate list of a plain aggregate.
fn plain_args<'a>(op: &str, args: &'a [RuntimeValue]) -> Result<(&'a Bat, Option<&'a [u64]>)> {
    if args.is_empty() || args.len() > 2 {
        return Err(EngineError::Arity {
            op: op.into(),
            msg: format!("expected 1-2 args, got {}", args.len()),
        });
    }
    let b = args[0].as_bat(op)?;
    let cand = if args.len() == 2 {
        Some(args[1].as_bat(op)?.as_oids()?)
    } else {
        None
    };
    Ok((b, cand))
}

fn for_each_pos(
    len: usize,
    cand: Option<&[u64]>,
    mut f: impl FnMut(usize) -> Result<()>,
) -> Result<()> {
    match cand {
        Some(c) => {
            for &o in c {
                let i = o as usize;
                if i >= len {
                    return Err(EngineError::OidOutOfRange { oid: o, len });
                }
                f(i)?;
            }
        }
        None => {
            for i in 0..len {
                f(i)?;
            }
        }
    }
    Ok(())
}

/// `aggr.sum(b [, cand])`.
pub fn sum(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "aggr.sum";
    let (b, cand) = plain_args(op, args)?;
    match b.view() {
        ColumnView::Int(v) => {
            let mut acc: i64 = 0;
            for_each_pos(v.len(), cand, |i| {
                acc = acc.wrapping_add(v[i]);
                Ok(())
            })?;
            Ok(vec![RuntimeValue::Scalar(Value::Int(acc))])
        }
        ColumnView::Dbl(v) => {
            let mut acc = 0.0;
            for_each_pos(v.len(), cand, |i| {
                acc += v[i];
                Ok(())
            })?;
            Ok(vec![RuntimeValue::Scalar(Value::Dbl(acc))])
        }
        other => Err(EngineError::TypeMismatch {
            op: op.into(),
            expected: "numeric BAT".into(),
            got: other.tail_type().to_string(),
        }),
    }
}

/// `aggr.count(b [, cand])`.
pub fn count(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "aggr.count";
    let (b, cand) = plain_args(op, args)?;
    let n = match cand {
        Some(c) => c.len(),
        None => b.len(),
    };
    Ok(vec![RuntimeValue::Scalar(Value::Int(n as i64))])
}

/// `aggr.avg(b [, cand])` — always a double; nil on empty input.
pub fn avg(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "aggr.avg";
    let (b, cand) = plain_args(op, args)?;
    let mut acc = 0.0;
    let mut n = 0usize;
    match b.view() {
        ColumnView::Int(v) => for_each_pos(v.len(), cand, |i| {
            acc += v[i] as f64;
            n += 1;
            Ok(())
        })?,
        ColumnView::Dbl(v) => for_each_pos(v.len(), cand, |i| {
            acc += v[i];
            n += 1;
            Ok(())
        })?,
        other => {
            return Err(EngineError::TypeMismatch {
                op: op.into(),
                expected: "numeric BAT".into(),
                got: other.tail_type().to_string(),
            })
        }
    }
    if n == 0 {
        Ok(vec![RuntimeValue::Scalar(Value::Nil(MalType::Dbl))])
    } else {
        Ok(vec![RuntimeValue::Scalar(Value::Dbl(acc / n as f64))])
    }
}

/// `aggr.min` / `aggr.max`; nil on empty input. Tracks the best *position*
/// over the borrowed view — one `Value` is built at the end, so string
/// columns never clone per row.
pub fn minmax(args: &[RuntimeValue], is_min: bool) -> Result<Vec<RuntimeValue>> {
    let op = if is_min { "aggr.min" } else { "aggr.max" };
    let (b, cand) = plain_args(op, args)?;
    let view = b.view();
    let mut best: Option<usize> = None;
    for_each_pos(b.len(), cand, |i| {
        let better = match best {
            None => true,
            Some(j) => {
                let ord = cell_cmp(view, i, j);
                if is_min {
                    ord == std::cmp::Ordering::Less
                } else {
                    ord == std::cmp::Ordering::Greater
                }
            }
        };
        if better {
            best = Some(i);
        }
        Ok(())
    })?;
    Ok(vec![RuntimeValue::Scalar(match best {
        Some(i) => b.get(i).expect("index checked"),
        None => Value::Nil(b.tail_type()),
    })])
}

/// Total order over two cells of the same column.
fn cell_cmp(view: ColumnView<'_>, a: usize, b: usize) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match view {
        ColumnView::Int(v) => v[a].cmp(&v[b]),
        ColumnView::Dbl(v) => v[a].partial_cmp(&v[b]).unwrap_or(Ordering::Equal),
        ColumnView::Str(v) => v.get(a).cmp(v.get(b)),
        ColumnView::Oid(v) => v[a].cmp(&v[b]),
        ColumnView::Date(v) => v[a].cmp(&v[b]),
        ColumnView::Bit(v) => v[a].cmp(&v[b]),
    }
}

/// Validate grouped-aggregate arguments and return (values, groups, ngroups).
fn grouped_args<'a>(op: &str, args: &'a [RuntimeValue]) -> Result<(&'a Bat, &'a [u64], usize)> {
    if args.len() != 3 {
        return Err(EngineError::Arity {
            op: op.into(),
            msg: format!(
                "expected 3 args (values, groups, extents), got {}",
                args.len()
            ),
        });
    }
    let vals = args[0].as_bat(op)?;
    let groups = args[1].as_bat(op)?.as_oids()?;
    let extents = args[2].as_bat(op)?;
    if vals.len() != groups.len() {
        return Err(EngineError::LengthMismatch {
            op: op.into(),
            left: vals.len(),
            right: groups.len(),
        });
    }
    Ok((vals, groups, extents.len()))
}

fn check_group(g: u64, ngroups: usize) -> Result<usize> {
    let i = g as usize;
    if i >= ngroups {
        Err(EngineError::OidOutOfRange {
            oid: g,
            len: ngroups,
        })
    } else {
        Ok(i)
    }
}

/// `aggr.subsum(vals, groups, extents)`.
pub fn subsum(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "aggr.subsum";
    let (vals, groups, n) = grouped_args(op, args)?;
    match vals.view() {
        ColumnView::Int(v) => {
            let mut acc = vec![0i64; n];
            for (i, &g) in groups.iter().enumerate() {
                acc[check_group(g, n)?] = acc[check_group(g, n)?].wrapping_add(v[i]);
            }
            Ok(vec![RuntimeValue::bat(Bat::new(ColumnData::Int(acc)))])
        }
        ColumnView::Dbl(v) => {
            let mut acc = vec![0.0f64; n];
            for (i, &g) in groups.iter().enumerate() {
                acc[check_group(g, n)?] += v[i];
            }
            Ok(vec![RuntimeValue::bat(Bat::new(ColumnData::Dbl(acc)))])
        }
        other => Err(EngineError::TypeMismatch {
            op: op.into(),
            expected: "numeric BAT".into(),
            got: other.tail_type().to_string(),
        }),
    }
}

/// `aggr.subcount(vals, groups, extents)`.
pub fn subcount(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "aggr.subcount";
    let (_vals, groups, n) = grouped_args(op, args)?;
    let mut acc = vec![0i64; n];
    for &g in groups {
        acc[check_group(g, n)?] += 1;
    }
    Ok(vec![RuntimeValue::bat(Bat::new(ColumnData::Int(acc)))])
}

/// `aggr.subavg(vals, groups, extents)` — double per group; groups with no
/// rows cannot occur (extents come from group.group).
pub fn subavg(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "aggr.subavg";
    let (vals, groups, n) = grouped_args(op, args)?;
    let mut sums = vec![0.0f64; n];
    let mut counts = vec![0usize; n];
    match vals.view() {
        ColumnView::Int(v) => {
            for (i, &g) in groups.iter().enumerate() {
                let gi = check_group(g, n)?;
                sums[gi] += v[i] as f64;
                counts[gi] += 1;
            }
        }
        ColumnView::Dbl(v) => {
            for (i, &g) in groups.iter().enumerate() {
                let gi = check_group(g, n)?;
                sums[gi] += v[i];
                counts[gi] += 1;
            }
        }
        other => {
            return Err(EngineError::TypeMismatch {
                op: op.into(),
                expected: "numeric BAT".into(),
                got: other.tail_type().to_string(),
            })
        }
    }
    let out: Vec<f64> = sums
        .iter()
        .zip(&counts)
        .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
        .collect();
    Ok(vec![RuntimeValue::bat(Bat::new(ColumnData::Dbl(out)))])
}

/// `aggr.submin` / `aggr.submax`.
pub fn subminmax(args: &[RuntimeValue], is_min: bool) -> Result<Vec<RuntimeValue>> {
    let op = if is_min { "aggr.submin" } else { "aggr.submax" };
    let (vals, groups, n) = grouped_args(op, args)?;
    macro_rules! reduce {
        ($v:expr, $ctor:path, $init:expr) => {{
            let v = $v;
            let mut acc = vec![$init; n];
            let mut seen = vec![false; n];
            for (i, &g) in groups.iter().enumerate() {
                let gi = check_group(g, n)?;
                if !seen[gi] {
                    acc[gi] = v[i].clone();
                    seen[gi] = true;
                } else if (is_min && v[i] < acc[gi]) || (!is_min && v[i] > acc[gi]) {
                    acc[gi] = v[i].clone();
                }
            }
            Ok(vec![RuntimeValue::bat(Bat::new($ctor(acc)))])
        }};
    }
    match vals.view() {
        ColumnView::Int(v) => reduce!(v, ColumnData::Int, 0i64),
        ColumnView::Dbl(v) => reduce!(v, ColumnData::Dbl, 0.0f64),
        ColumnView::Str(v) => {
            // Reduce over codes, comparing their strings; a group that no
            // row reaches reads "" as the other types read zero.
            let mut acc: Vec<Option<u32>> = vec![None; n];
            for (&g, &c) in groups.iter().zip(v.codes()) {
                let gi = check_group(g, n)?;
                let s = v.dict().get(c);
                let better = acc[gi].is_none_or(|a| {
                    let best = v.dict().get(a);
                    (is_min && s < best) || (!is_min && s > best)
                });
                if better {
                    acc[gi] = Some(c);
                }
            }
            let strs = acc.iter().map(|a| a.map_or("", |c| v.dict().get(c)));
            Ok(vec![RuntimeValue::bat(Bat::from_strs(strs))])
        }
        ColumnView::Date(v) => reduce!(v, ColumnData::Date, 0i32),
        ColumnView::Oid(v) => reduce!(v, ColumnData::Oid, 0u64),
        other => Err(EngineError::TypeMismatch {
            op: op.into(),
            expected: "orderable BAT".into(),
            got: other.tail_type().to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rb(b: Bat) -> RuntimeValue {
        RuntimeValue::bat(b)
    }

    fn scalar(v: &[RuntimeValue]) -> Value {
        v[0].as_scalar("t").unwrap().clone()
    }

    #[test]
    fn plain_sum_count_avg() {
        let b = rb(Bat::ints(vec![1, 2, 3, 4]));
        assert_eq!(
            scalar(&sum(std::slice::from_ref(&b)).unwrap()),
            Value::Int(10)
        );
        assert_eq!(
            scalar(&count(std::slice::from_ref(&b)).unwrap()),
            Value::Int(4)
        );
        assert_eq!(scalar(&avg(&[b]).unwrap()), Value::Dbl(2.5));
    }

    #[test]
    fn plain_with_candidates() {
        let b = rb(Bat::ints(vec![10, 20, 30]));
        let cand = rb(Bat::oids(vec![0, 2]));
        assert_eq!(
            scalar(&sum(&[b.clone(), cand.clone()]).unwrap()),
            Value::Int(40)
        );
        assert_eq!(scalar(&count(&[b, cand]).unwrap()), Value::Int(2));
    }

    #[test]
    fn dbl_sum() {
        let b = rb(Bat::dbls(vec![0.5, 0.25]));
        assert_eq!(scalar(&sum(&[b]).unwrap()), Value::Dbl(0.75));
    }

    #[test]
    fn min_max_types() {
        let b = rb(Bat::ints(vec![3, 1, 2]));
        assert_eq!(
            scalar(&minmax(std::slice::from_ref(&b), true).unwrap()),
            Value::Int(1)
        );
        assert_eq!(scalar(&minmax(&[b], false).unwrap()), Value::Int(3));
        let s = rb(Bat::strs(vec!["b".into(), "a".into()]));
        assert_eq!(scalar(&minmax(&[s], true).unwrap()), Value::Str("a".into()));
    }

    #[test]
    fn empty_aggregates() {
        let b = rb(Bat::ints(vec![]));
        assert_eq!(
            scalar(&sum(std::slice::from_ref(&b)).unwrap()),
            Value::Int(0)
        );
        assert_eq!(
            scalar(&count(std::slice::from_ref(&b)).unwrap()),
            Value::Int(0)
        );
        assert!(scalar(&avg(std::slice::from_ref(&b)).unwrap()).is_nil());
        assert!(scalar(&minmax(&[b], true).unwrap()).is_nil());
    }

    #[test]
    fn sum_rejects_strings() {
        let b = rb(Bat::strs(vec!["a".into()]));
        assert!(sum(&[b]).is_err());
    }

    #[test]
    fn grouped_sum_count_avg() {
        // groups: [0,1,0,1,2]; values: [1,2,3,4,5]
        let vals = rb(Bat::ints(vec![1, 2, 3, 4, 5]));
        let groups = rb(Bat::oids(vec![0, 1, 0, 1, 2]));
        let extents = rb(Bat::oids(vec![0, 1, 4]));
        let s = subsum(&[vals.clone(), groups.clone(), extents.clone()]).unwrap();
        assert_eq!(s[0].as_bat("t").unwrap().as_ints().unwrap(), &[4, 6, 5]);
        let c = subcount(&[vals.clone(), groups.clone(), extents.clone()]).unwrap();
        assert_eq!(c[0].as_bat("t").unwrap().as_ints().unwrap(), &[2, 2, 1]);
        let a = subavg(&[vals, groups, extents]).unwrap();
        assert_eq!(
            a[0].as_bat("t").unwrap().as_dbls().unwrap(),
            &[2.0, 3.0, 5.0]
        );
    }

    #[test]
    fn grouped_minmax() {
        let vals = rb(Bat::dbls(vec![1.0, 9.0, 3.0, 2.0]));
        let groups = rb(Bat::oids(vec![0, 0, 1, 1]));
        let extents = rb(Bat::oids(vec![0, 2]));
        let mn = subminmax(&[vals.clone(), groups.clone(), extents.clone()], true).unwrap();
        assert_eq!(mn[0].as_bat("t").unwrap().as_dbls().unwrap(), &[1.0, 2.0]);
        let mx = subminmax(&[vals, groups, extents], false).unwrap();
        assert_eq!(mx[0].as_bat("t").unwrap().as_dbls().unwrap(), &[9.0, 3.0]);
    }

    #[test]
    fn grouped_length_mismatch() {
        let vals = rb(Bat::ints(vec![1, 2]));
        let groups = rb(Bat::oids(vec![0]));
        let extents = rb(Bat::oids(vec![0]));
        assert!(matches!(
            subsum(&[vals, groups, extents]),
            Err(EngineError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn grouped_bad_group_id() {
        let vals = rb(Bat::ints(vec![1]));
        let groups = rb(Bat::oids(vec![5]));
        let extents = rb(Bat::oids(vec![0]));
        assert!(matches!(
            subsum(&[vals, groups, extents]),
            Err(EngineError::OidOutOfRange { .. })
        ));
    }
}

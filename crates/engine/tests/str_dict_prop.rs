//! Property tests of the dictionary-encoded string kernels against a plain
//! `Vec<String>` reference.
//!
//! Every case builds string BATs from a small vocabulary in several
//! representations: codes into a dictionary of exactly the strings used,
//! and codes into a dictionary padded with unused strings in another
//! order. Each kernel must give the answer the reference computes from
//! the strings alone, whatever the codes and dictionaries are:
//!
//! * `group.group` and `group.subgroup`, with inputs shaped to take
//!   subgroup's dense-table branch and its hashed branch;
//! * `gather`, `slice`, and `pack` over one dictionary (adjacent and
//!   scattered parts) and over different dictionaries holding equal
//!   strings, where the merged dictionary must stay free of duplicates;
//! * `algebra.sort`, `algebra.thetaselect`, `algebra.likeselect`,
//!   string `algebra.join`, and `Bat` equality across dictionaries.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;

use stetho_engine::rt::RuntimeValue;
use stetho_engine::{ops, Bat, Catalog, ExecCtx};
use stetho_mal::Value;

/// Strings the cases draw from: shared prefixes, the empty string, a
/// multi-byte character and LIKE wildcards as data.
const VOCAB: [&str; 10] = ["", "a", "ab", "abc", "b", "ba", "MAIL", "é", "a%", "a_c"];

/// Unused strings a padded dictionary holds ahead of the used ones.
const PADDING: usize = 64;

/// The same string column in one of two dictionary representations.
fn encode(rows: &[String], padded: bool) -> Bat {
    if !padded {
        return Bat::from_strs(rows);
    }
    // Padding first, then the vocabulary in reverse: codes differ from
    // the plain encoding and most entries are never referenced.
    let mut domain: Vec<String> = (0..PADDING).map(|i| format!("pad{i}")).collect();
    domain.extend(VOCAB.iter().rev().map(|s| s.to_string()));
    let dict = Bat::from_strs(&domain);
    let at: HashMap<&str, u64> = domain
        .iter()
        .enumerate()
        .map(|(i, s)| (s.as_str(), i as u64))
        .collect();
    let positions: Vec<u64> = rows.iter().map(|s| at[s.as_str()]).collect();
    dict.gather(&positions).unwrap()
}

fn strings(b: &Bat) -> Vec<String> {
    b.as_strs().unwrap().iter().map(str::to_string).collect()
}

fn rows_of(picks: &[usize]) -> Vec<String> {
    picks.iter().map(|&p| VOCAB[p].to_string()).collect()
}

fn exec(module: &str, function: &str, args: &[RuntimeValue]) -> Vec<RuntimeValue> {
    let ctx = ExecCtx::new(Arc::new(Catalog::new()));
    ops::execute(module, function, args, &ctx)
        .unwrap_or_else(|e| panic!("{module}.{function}: {e}"))
}

fn rb(b: Bat) -> RuntimeValue {
    RuntimeValue::bat(b)
}

fn oids(v: &RuntimeValue) -> Vec<u64> {
    v.as_bat("t").unwrap().as_oids().unwrap().to_vec()
}

fn ints(v: &RuntimeValue) -> Vec<i64> {
    v.as_bat("t").unwrap().as_ints().unwrap().to_vec()
}

/// Reference grouping: ids in order of first occurrence of each key.
fn reference_groups<K: std::hash::Hash + Eq>(
    keys: impl Iterator<Item = K>,
) -> (Vec<u64>, Vec<u64>, Vec<i64>) {
    let mut ids: HashMap<K, u64> = HashMap::new();
    let (mut groups, mut extents, mut histo) = (Vec::new(), Vec::new(), Vec::new());
    for (i, k) in keys.enumerate() {
        let next = ids.len() as u64;
        let id = *ids.entry(k).or_insert_with(|| {
            extents.push(i as u64);
            histo.push(0i64);
            next
        });
        histo[id as usize] += 1;
        groups.push(id);
    }
    (groups, extents, histo)
}

/// Reference LIKE: `%` any run, `_` one character, over chars.
fn like(s: &[char], p: &[char]) -> bool {
    match p.split_first() {
        None => s.is_empty(),
        Some(('%', rest)) => (0..=s.len()).any(|k| like(&s[k..], rest)),
        Some(('_', rest)) => !s.is_empty() && like(&s[1..], rest),
        Some((c, rest)) => s.first() == Some(c) && like(&s[1..], rest),
    }
}

/// A grouping case. `dense` shapes the input so that subgroup's
/// `groups × dict.len()` table fits (few distinct strings and groups, many
/// rows, an unpadded dictionary) or does not (a padded dictionary larger
/// than the input). `group.group` takes its `dict.len()` table either way.
#[derive(Debug, Clone)]
struct GroupCase {
    dense: bool,
    picks: Vec<usize>,
    prev: Vec<u64>,
}

fn arb_group_case() -> impl Strategy<Value = GroupCase> {
    let dense = (
        proptest::collection::vec(0usize..4, 16..200),
        proptest::collection::vec(0u64..4, 200usize),
    )
        .prop_map(|(picks, prev)| GroupCase {
            dense: true,
            prev: prev[..picks.len()].to_vec(),
            picks,
        });
    let hashed = (
        proptest::collection::vec(0usize..VOCAB.len(), 0..PADDING),
        proptest::collection::vec(0u64..6, PADDING),
    )
        .prop_map(|(picks, prev)| GroupCase {
            dense: false,
            prev: prev[..picks.len()].to_vec(),
            picks,
        });
    prop_oneof![dense, hashed]
}

/// A case over two independent columns for the set-oriented kernels.
#[derive(Debug, Clone)]
struct PairCase {
    left: Vec<usize>,
    right: Vec<usize>,
    left_padded: bool,
    right_padded: bool,
    cuts: Vec<usize>,
    positions: Vec<usize>,
    probe: usize,
    theta: usize,
    pattern: usize,
}

fn arb_pair_case() -> impl Strategy<Value = PairCase> {
    (
        proptest::collection::vec(0usize..VOCAB.len(), 0..40),
        proptest::collection::vec(0usize..VOCAB.len(), 0..40),
        any::<bool>(),
        any::<bool>(),
        proptest::collection::vec(0usize..1000, 0..6),
        proptest::collection::vec(0usize..1000, 0..30),
        (0usize..VOCAB.len(), 0usize..6, 0usize..PATTERNS.len()),
    )
        .prop_map(
            |(left, right, left_padded, right_padded, cuts, positions, (probe, theta, pattern))| {
                PairCase {
                    left,
                    right,
                    left_padded,
                    right_padded,
                    cuts,
                    positions,
                    probe,
                    theta,
                    pattern,
                }
            },
        )
}

const THETAS: [&str; 6] = ["==", "!=", "<", "<=", ">", ">="];
const PATTERNS: [&str; 7] = ["%", "a%", "%b", "_", "a_c", "%a%", "é"];

/// Sorted, deduplicated cut points inside `0..=n`.
fn cut_points(cuts: &[usize], n: usize) -> Vec<usize> {
    let mut c: Vec<usize> = cuts.iter().map(|&x| x % (n + 1)).collect();
    c.push(0);
    c.push(n);
    c.sort_unstable();
    c.dedup();
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `group.group` and `group.subgroup` number groups exactly like the
    /// reference over strings, on either branch and either dictionary.
    #[test]
    fn grouping_matches_reference(case in arb_group_case()) {
        let rows = rows_of(&case.picks);
        let padded = !case.dense;
        let col = encode(&rows, padded);
        let n = rows.len();
        let d = col.as_strs().unwrap().dict().len();
        let width = case.prev.iter().max().map_or(0, |m| *m as usize + 1);
        // Subgroup's table is dense exactly when no larger than the input.
        if case.dense {
            prop_assert!(width * d <= n);
        } else {
            prop_assert!(n == 0 || width * d > n);
        }

        let out = exec("group", "group", &[rb(col.clone())]);
        let (g, e, h) = reference_groups(rows.iter());
        prop_assert_eq!(oids(&out[0]), g);
        prop_assert_eq!(oids(&out[1]), e);
        prop_assert_eq!(ints(&out[2]), h);

        let prev = rb(Bat::oids(case.prev.clone()));
        let out = exec("group", "subgroup", &[rb(col), prev]);
        let (g, e, h) = reference_groups(case.prev.iter().zip(rows.iter()));
        prop_assert_eq!(oids(&out[0]), g);
        prop_assert_eq!(oids(&out[1]), e);
        prop_assert_eq!(ints(&out[2]), h);
    }

    /// `gather`, `slice` and `pack` keep the strings of the reference, and
    /// a pack over different dictionaries yields one without duplicates.
    #[test]
    fn gather_slice_pack_match_reference(case in arb_pair_case()) {
        let rows = rows_of(&case.left);
        let col = encode(&rows, case.left_padded);
        let n = rows.len();

        if n > 0 {
            let pos: Vec<u64> = case.positions.iter().map(|&p| (p % n) as u64).collect();
            let want: Vec<String> = pos.iter().map(|&p| rows[p as usize].clone()).collect();
            prop_assert_eq!(strings(&col.gather(&pos).unwrap()), want);
        }

        let cuts = cut_points(&case.cuts, n);
        let parts: Vec<Bat> = cuts.windows(2).map(|w| col.slice(w[0], w[1])).collect();
        for (p, w) in parts.iter().zip(cuts.windows(2)) {
            prop_assert_eq!(strings(p), rows[w[0]..w[1]].to_vec());
        }
        if parts.is_empty() {
            return;
        }

        // Adjacent parts of one buffer: the widened view.
        let packed = Bat::pack(&parts).unwrap();
        prop_assert_eq!(strings(&packed), rows.clone());

        // Scattered parts over one dictionary: reversed order.
        let reversed: Vec<Bat> = parts.iter().rev().cloned().collect();
        let want: Vec<String> = cuts
            .windows(2)
            .rev()
            .flat_map(|w| rows[w[0]..w[1]].to_vec())
            .collect();
        let packed = Bat::pack(&reversed).unwrap();
        prop_assert_eq!(strings(&packed), want.clone());

        // Parts over different dictionaries holding equal strings: every
        // other part re-encoded the other way, plus the right column.
        let other = rows_of(&case.right);
        let mut mixed: Vec<Bat> = reversed
            .iter()
            .enumerate()
            .map(|(k, p)| {
                if k % 2 == 1 {
                    encode(&strings(p), !case.left_padded)
                } else {
                    p.clone()
                }
            })
            .collect();
        mixed.push(encode(&other, case.right_padded));
        let mut want = want;
        want.extend(other);
        let packed = Bat::pack(&mixed).unwrap();
        prop_assert_eq!(strings(&packed), want);
        let v = packed.as_strs().unwrap();
        let dict: Vec<&str> = (0..v.dict().len() as u32).map(|c| v.dict().get(c)).collect();
        let distinct: HashSet<&str> = dict.iter().copied().collect();
        prop_assert_eq!(distinct.len(), dict.len(), "merged dictionary repeats a string");
        // Equal strings share one code: grouping the packed column agrees
        // with the reference.
        let out = exec("group", "group", &[rb(packed.clone())]);
        prop_assert_eq!(oids(&out[0]), reference_groups(strings(&packed).iter()).0);
    }

    /// Sort, selections, join and equality read strings, never raw codes.
    #[test]
    fn sort_select_join_equality_match_reference(case in arb_pair_case()) {
        let left = rows_of(&case.left);
        let right = rows_of(&case.right);
        let l = encode(&left, case.left_padded);
        let r = encode(&right, case.right_padded);
        let n = left.len();

        // algebra.sort, ascending and descending (stable, then reversed).
        for reverse in [false, true] {
            let flag = RuntimeValue::Scalar(Value::Bit(reverse));
            let out = exec("algebra", "sort", &[rb(l.clone()), flag]);
            let mut order: Vec<u64> = (0..n as u64).collect();
            order.sort_by(|&a, &b| left[a as usize].cmp(&left[b as usize]));
            if reverse {
                order.reverse();
            }
            let want: Vec<String> = order.iter().map(|&o| left[o as usize].clone()).collect();
            prop_assert_eq!(strings(out[0].as_bat("t").unwrap()), want);
            prop_assert_eq!(oids(&out[1]), order);
        }

        // algebra.thetaselect against a constant.
        let probe = VOCAB[case.probe];
        let theta = THETAS[case.theta];
        let out = exec(
            "algebra",
            "thetaselect",
            &[
                rb(l.clone()),
                rb(Bat::dense_oids(n)),
                RuntimeValue::Scalar(Value::Str(probe.into())),
                RuntimeValue::Scalar(Value::Str(theta.into())),
            ],
        );
        let hit = |o: Ordering| match theta {
            "==" => o == Ordering::Equal,
            "!=" => o != Ordering::Equal,
            "<" => o == Ordering::Less,
            "<=" => o != Ordering::Greater,
            ">" => o == Ordering::Greater,
            _ => o != Ordering::Less,
        };
        let want: Vec<u64> = (0..n as u64)
            .filter(|&i| hit(left[i as usize].as_str().cmp(probe)))
            .collect();
        prop_assert_eq!(oids(&out[0]), want);

        // algebra.likeselect, plain and anti.
        let pattern = PATTERNS[case.pattern];
        let pchars: Vec<char> = pattern.chars().collect();
        for anti in [false, true] {
            let out = exec(
                "algebra",
                "likeselect",
                &[
                    rb(l.clone()),
                    rb(Bat::dense_oids(n)),
                    RuntimeValue::Scalar(Value::Str(pattern.into())),
                    RuntimeValue::Scalar(Value::Bit(anti)),
                ],
            );
            let want: Vec<u64> = (0..n as u64)
                .filter(|&i| {
                    let s: Vec<char> = left[i as usize].chars().collect();
                    like(&s, &pchars) != anti
                })
                .collect();
            prop_assert_eq!(oids(&out[0]), want);
        }

        // algebra.join over two dictionaries: the set of matching pairs.
        let out = exec("algebra", "join", &[rb(l.clone()), rb(r.clone())]);
        let mut got: Vec<(u64, u64)> = oids(&out[0]).into_iter().zip(oids(&out[1])).collect();
        got.sort_unstable();
        let mut want = Vec::new();
        for (i, a) in left.iter().enumerate() {
            for (j, b) in right.iter().enumerate() {
                if a == b {
                    want.push((i as u64, j as u64));
                }
            }
        }
        prop_assert_eq!(got, want);

        // Equality across dictionaries follows the strings.
        prop_assert_eq!(l == r, left == right);
        let same = encode(&left, !case.left_padded);
        prop_assert!(l == same);
        if n > 0 {
            let mut changed = left.clone();
            let k = case.probe % n;
            changed[k] = if changed[k] == "b" { "a".into() } else { "b".into() };
            prop_assert!(l != encode(&changed, case.left_padded));
            prop_assert!(l != encode(&changed, !case.left_padded));
        }
    }
}

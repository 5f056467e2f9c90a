//! Binary Association Tables — MonetDB's columnar storage unit.
//!
//! A BAT logically holds (head, tail) pairs. The head is a *virtual* dense
//! oid sequence `0..n`, so physically a BAT is just a typed vector of tail
//! values. Selections produce *candidate lists*: BATs of oids naming the
//! qualifying rows, kept sorted so downstream operators can exploit order.
//!
//! Storage is zero-copy: tail values live in immutable `Arc`-shared buffers
//! and a `Bat` is a `(buffer, offset, len)` *view*. `slice` (and therefore
//! mitosis range-partitioning) is an O(1) metadata operation; `concat` of
//! adjacent views over the same buffer (the `mat.pack` of a partitioned
//! pipeline) just widens the window. Mutation (`bat.append` with new data,
//! `gather`, kernels producing fresh columns) allocates a new buffer —
//! copy-on-write at buffer granularity.
//!
//! String tails are dictionary-encoded, the way MonetDB keeps string tails
//! as offsets into a deduplicated string heap: a string BAT stores one
//! 4-byte code per row into a [`StrDict`] that holds each distinct string
//! once and is shared (by `Arc`) by every BAT derived from the same column.
//! Slicing, projecting and packing a string column copy or widen codes and
//! share the dictionary — one refcount per BAT, none per row — and
//! grouping keys on the codes instead of hashing strings.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use stetho_mal::{MalType, Value};

use crate::error::EngineError;
use crate::Result;

/// When set, all zero-copy fast paths (view slices, widened-view concat,
/// dense-range projection) materialise fresh buffers instead — the engine's
/// pre-sharing behaviour. Used by property tests to check that views are
/// observationally identical to copies, and by benches to measure both sides.
/// String columns copy their codes; their dictionary stays shared.
static FORCE_COPY: AtomicBool = AtomicBool::new(false);

/// Globally enable or disable forced materialisation (process-wide).
pub fn set_force_copy(on: bool) {
    FORCE_COPY.store(on, Ordering::SeqCst);
}

/// True when zero-copy fast paths should materialise instead.
pub fn force_copy() -> bool {
    FORCE_COPY.load(Ordering::SeqCst)
}

/// Typed owned column values — the *builder* type handed to [`Bat::new`].
/// Once wrapped in a `Bat` the values are frozen behind an `Arc` buffer.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Booleans.
    Bit(Vec<bool>),
    /// 64-bit integers (bte/sht/int/lng all collapse here).
    Int(Vec<i64>),
    /// Doubles.
    Dbl(Vec<f64>),
    /// Strings: one code per row into a shared dictionary. Every code must
    /// be below `dict.len()`.
    Str {
        /// Per-row dictionary codes.
        codes: Vec<u32>,
        /// The dictionary the codes index.
        dict: Arc<StrDict>,
    },
    /// Oids — candidate lists and join results.
    Oid(Vec<u64>),
    /// Dates, days since epoch.
    Date(Vec<i32>),
}

impl ColumnData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Bit(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Dbl(v) => v.len(),
            ColumnData::Str { codes, .. } => codes.len(),
            ColumnData::Oid(v) => v.len(),
            ColumnData::Date(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tail type.
    pub fn tail_type(&self) -> MalType {
        match self {
            ColumnData::Bit(_) => MalType::Bit,
            ColumnData::Int(_) => MalType::Int,
            ColumnData::Dbl(_) => MalType::Dbl,
            ColumnData::Str { .. } => MalType::Str,
            ColumnData::Oid(_) => MalType::Oid,
            ColumnData::Date(_) => MalType::Date,
        }
    }

    /// Allocate an empty column of a scalar type.
    pub fn empty_of(ty: &MalType) -> Result<ColumnData> {
        Ok(match ty {
            MalType::Bit => ColumnData::Bit(Vec::new()),
            MalType::Int => ColumnData::Int(Vec::new()),
            MalType::Dbl => ColumnData::Dbl(Vec::new()),
            MalType::Str => ColumnData::Str {
                codes: Vec::new(),
                dict: Arc::default(),
            },
            MalType::Oid => ColumnData::Oid(Vec::new()),
            MalType::Date => ColumnData::Date(Vec::new()),
            other => {
                return Err(EngineError::Other(format!(
                    "cannot make a BAT with tail type {other}"
                )))
            }
        })
    }
}

/// A string dictionary: each distinct string once, stored back to back in
/// one heap and addressed by a dense `u32` code in first-insertion order.
/// Immutable once built; string BATs share it by `Arc`.
#[derive(Debug, Default)]
pub struct StrDict {
    /// The strings, concatenated.
    heap: String,
    /// `ends[c]` is the heap offset one past string `c`.
    ends: Vec<usize>,
}

impl StrDict {
    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the dictionary holds no string.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The string with code `code`. Panics when `code >= len()`.
    pub fn get(&self, code: u32) -> &str {
        let c = code as usize;
        let start = if c == 0 { 0 } else { self.ends[c - 1] };
        &self.heap[start..self.ends[c]]
    }

    /// Heap footprint: the string bytes plus one offset per entry. O(1).
    pub fn bytes(&self) -> usize {
        self.heap.len() + self.ends.len() * std::mem::size_of::<usize>()
    }

    fn push(&mut self, s: &str) -> u32 {
        let code = u32::try_from(self.ends.len())
            .ok()
            .filter(|&c| c < u32::MAX)
            .expect("string dictionary holds at most u32::MAX - 1 entries");
        self.heap.push_str(s);
        self.ends.push(self.heap.len());
        code
    }
}

/// Builds a [`StrDict`], deduplicating as it goes: interning a string that
/// is already present returns its existing code.
#[derive(Debug, Default)]
struct StrDictBuilder {
    dict: StrDict,
    /// The code of each string in `dict`; dropped by `finish`.
    index: HashMap<Box<str>, u32>,
}

impl StrDictBuilder {
    /// A builder that starts with `dict`'s entries under their codes.
    fn extending(dict: &StrDict) -> Self {
        let mut b = StrDictBuilder::default();
        for code in 0..dict.len() as u32 {
            b.intern(dict.get(code));
        }
        b
    }

    /// The code of `s`, added to the dictionary when new.
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.index.get(s) {
            return code;
        }
        let code = self.dict.push(s);
        self.index.insert(s.into(), code);
        code
    }

    /// Freeze the dictionary.
    fn finish(self) -> Arc<StrDict> {
        Arc::new(self.dict)
    }
}

/// The immutable shared backing store of one or more `Bat` views.
#[derive(Debug, Clone)]
enum Buffer {
    Bit(Arc<[bool]>),
    Int(Arc<[i64]>),
    Dbl(Arc<[f64]>),
    Str {
        codes: Arc<[u32]>,
        dict: Arc<StrDict>,
    },
    Oid(Arc<[u64]>),
    Date(Arc<[i32]>),
}

impl Buffer {
    fn tail_type(&self) -> MalType {
        match self {
            Buffer::Bit(_) => MalType::Bit,
            Buffer::Int(_) => MalType::Int,
            Buffer::Dbl(_) => MalType::Dbl,
            Buffer::Str { .. } => MalType::Str,
            Buffer::Oid(_) => MalType::Oid,
            Buffer::Date(_) => MalType::Date,
        }
    }

    /// Same allocation? (Views over equal-but-distinct buffers are not
    /// "the same" for widening purposes.)
    fn same_alloc(&self, other: &Buffer) -> bool {
        match (self, other) {
            (Buffer::Bit(a), Buffer::Bit(b)) => Arc::ptr_eq(a, b),
            (Buffer::Int(a), Buffer::Int(b)) => Arc::ptr_eq(a, b),
            (Buffer::Dbl(a), Buffer::Dbl(b)) => Arc::ptr_eq(a, b),
            (Buffer::Str { codes: a, .. }, Buffer::Str { codes: b, .. }) => Arc::ptr_eq(a, b),
            (Buffer::Oid(a), Buffer::Oid(b)) => Arc::ptr_eq(a, b),
            (Buffer::Date(a), Buffer::Date(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl From<ColumnData> for Buffer {
    fn from(d: ColumnData) -> Buffer {
        match d {
            ColumnData::Bit(v) => Buffer::Bit(v.into()),
            ColumnData::Int(v) => Buffer::Int(v.into()),
            ColumnData::Dbl(v) => Buffer::Dbl(v.into()),
            ColumnData::Str { codes, dict } => Buffer::Str {
                codes: codes.into(),
                dict,
            },
            ColumnData::Oid(v) => Buffer::Oid(v.into()),
            ColumnData::Date(v) => Buffer::Date(v.into()),
        }
    }
}

/// A windowed string column: per-row codes plus the dictionary they index.
#[derive(Debug, Clone, Copy)]
pub struct StrView<'a> {
    codes: &'a [u32],
    dict: &'a Arc<StrDict>,
}

impl<'a> StrView<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The string at row `i`. Panics when `i >= len()`.
    pub fn get(&self, i: usize) -> &'a str {
        self.dict.get(self.codes[i])
    }

    /// Per-row codes into [`StrView::dict`].
    pub fn codes(&self) -> &'a [u32] {
        self.codes
    }

    /// The shared dictionary.
    pub fn dict(&self) -> &'a Arc<StrDict> {
        self.dict
    }

    /// The strings, in row order.
    pub fn iter(&self) -> impl Iterator<Item = &'a str> + 'a {
        let dict: &'a StrDict = self.dict;
        self.codes.iter().map(move |&c| dict.get(c))
    }
}

/// Equality is by string. Codes are compared directly only within one
/// dictionary, where (having no duplicates) equal codes mean equal strings.
impl PartialEq for StrView<'_> {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        if Arc::ptr_eq(self.dict, other.dict) {
            return self.codes == other.codes;
        }
        self.iter().eq(other.iter())
    }
}

/// Borrowed, already-windowed view of a BAT's tail values — what kernels
/// match on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColumnView<'a> {
    /// Booleans.
    Bit(&'a [bool]),
    /// 64-bit integers.
    Int(&'a [i64]),
    /// Doubles.
    Dbl(&'a [f64]),
    /// Dictionary-encoded strings.
    Str(StrView<'a>),
    /// Oids.
    Oid(&'a [u64]),
    /// Dates, days since epoch.
    Date(&'a [i32]),
}

impl ColumnView<'_> {
    /// Number of rows in the view.
    pub fn len(&self) -> usize {
        match self {
            ColumnView::Bit(v) => v.len(),
            ColumnView::Int(v) => v.len(),
            ColumnView::Dbl(v) => v.len(),
            ColumnView::Str(v) => v.len(),
            ColumnView::Oid(v) => v.len(),
            ColumnView::Date(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tail type.
    pub fn tail_type(&self) -> MalType {
        match self {
            ColumnView::Bit(_) => MalType::Bit,
            ColumnView::Int(_) => MalType::Int,
            ColumnView::Dbl(_) => MalType::Dbl,
            ColumnView::Str(_) => MalType::Str,
            ColumnView::Oid(_) => MalType::Oid,
            ColumnView::Date(_) => MalType::Date,
        }
    }
}

/// A BAT: an `(Arc` buffer`, offset, len)` view plus light metadata.
/// Cloning a `Bat` clones the `Arc`, never the data.
#[derive(Debug, Clone)]
pub struct Bat {
    /// Shared backing buffer.
    buf: Buffer,
    /// Window start within the buffer.
    off: usize,
    /// Window length.
    len: usize,
    /// True when tail values are known to be non-decreasing (candidate
    /// lists maintain this).
    pub sorted: bool,
    /// True when the tail is oid and the window holds consecutive values
    /// `first, first+1, …` — the dense-candidate fast path.
    dense: bool,
}

/// Equality is logical: same tail type and same windowed values. Two views
/// over different buffers (or at different offsets) compare equal when their
/// contents do; `sorted`/`dense` metadata is ignored.
impl PartialEq for Bat {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

macro_rules! window {
    ($v:expr, $self:expr) => {
        &$v[$self.off..$self.off + $self.len]
    };
}

impl Bat {
    /// Freeze column data into a fresh full-width view (sortedness unknown
    /// → false).
    ///
    /// # Panics
    /// When a string column holds a code outside its dictionary.
    pub fn new(data: ColumnData) -> Self {
        if let ColumnData::Str { codes, dict } = &data {
            assert!(
                codes.iter().all(|&c| (c as usize) < dict.len()),
                "string code outside its dictionary of {} entries",
                dict.len()
            );
        }
        Bat::from_buffer(data.into(), false)
    }

    /// Freeze column data known to be sorted.
    pub fn new_sorted(data: ColumnData) -> Self {
        let mut b = Bat::new(data);
        b.sorted = true;
        b
    }

    /// Full-width view of an already-valid buffer.
    fn from_buffer(buf: Buffer, sorted: bool) -> Self {
        let len = match &buf {
            Buffer::Bit(v) => v.len(),
            Buffer::Int(v) => v.len(),
            Buffer::Dbl(v) => v.len(),
            Buffer::Str { codes, .. } => codes.len(),
            Buffer::Oid(v) => v.len(),
            Buffer::Date(v) => v.len(),
        };
        Bat {
            buf,
            off: 0,
            len,
            sorted,
            dense: false,
        }
    }

    /// Int column shorthand.
    pub fn ints(v: Vec<i64>) -> Self {
        Bat::new(ColumnData::Int(v))
    }

    /// Dbl column shorthand.
    pub fn dbls(v: Vec<f64>) -> Self {
        Bat::new(ColumnData::Dbl(v))
    }

    /// Str column shorthand; see [`Bat::from_strs`].
    pub fn strs(v: Vec<String>) -> Self {
        Bat::from_strs(v)
    }

    /// Str column over a fixed domain: row `i` holds `domain[codes[i]]`,
    /// and the dictionary is the domain in order.
    ///
    /// # Panics
    /// When `domain` repeats a string or a code is not below `domain.len()`.
    pub fn from_codes(domain: &[&str], codes: Vec<u32>) -> Self {
        let mut dict = StrDictBuilder::default();
        for (k, s) in domain.iter().enumerate() {
            assert_eq!(dict.intern(s) as usize, k, "string domain repeats {s:?}");
        }
        Bat::new(ColumnData::Str {
            codes,
            dict: dict.finish(),
        })
    }

    /// Str column encoded against a fresh dictionary of the values'
    /// distinct strings.
    pub fn from_strs<S: AsRef<str>>(v: impl IntoIterator<Item = S>) -> Self {
        let mut dict = StrDictBuilder::default();
        let codes: Vec<u32> = v.into_iter().map(|s| dict.intern(s.as_ref())).collect();
        Bat::from_buffer(
            Buffer::Str {
                codes: codes.into(),
                dict: dict.finish(),
            },
            false,
        )
    }

    /// Date column shorthand.
    pub fn dates(v: Vec<i32>) -> Self {
        Bat::new(ColumnData::Date(v))
    }

    /// Sorted oid candidate list `0..n`.
    pub fn dense_oids(n: usize) -> Self {
        let mut b = Bat::new_sorted(ColumnData::Oid((0..n as u64).collect()));
        b.dense = true;
        b
    }

    /// Oid list shorthand (detects sortedness and density in one pass).
    pub fn oids(v: Vec<u64>) -> Self {
        let sorted = v.windows(2).all(|w| w[0] <= w[1]);
        let dense = sorted && v.windows(2).all(|w| w[1] == w[0] + 1);
        let mut b = Bat::from_buffer(Buffer::Oid(v.into()), sorted);
        b.dense = dense;
        b
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tail type.
    pub fn tail_type(&self) -> MalType {
        self.buf.tail_type()
    }

    /// The BAT's MAL type (`bat[:tail]`).
    pub fn mal_type(&self) -> MalType {
        MalType::bat(self.tail_type())
    }

    /// Borrowed view of the tail values, window already applied. This is
    /// the accessor kernels match on.
    pub fn view(&self) -> ColumnView<'_> {
        match &self.buf {
            Buffer::Bit(v) => ColumnView::Bit(window!(v, self)),
            Buffer::Int(v) => ColumnView::Int(window!(v, self)),
            Buffer::Dbl(v) => ColumnView::Dbl(window!(v, self)),
            Buffer::Str { codes, dict } => ColumnView::Str(StrView {
                codes: window!(codes, self),
                dict,
            }),
            Buffer::Oid(v) => ColumnView::Oid(window!(v, self)),
            Buffer::Date(v) => ColumnView::Date(window!(v, self)),
        }
    }

    /// Value at row `i`. Allocates for string tails — rendering path only;
    /// hot paths use [`Bat::str_at`] / [`Bat::view`].
    pub fn get(&self, i: usize) -> Option<Value> {
        if i >= self.len {
            return None;
        }
        Some(match self.view() {
            ColumnView::Bit(v) => Value::Bit(v[i]),
            ColumnView::Int(v) => Value::Int(v[i]),
            ColumnView::Dbl(v) => Value::Dbl(v[i]),
            ColumnView::Str(v) => Value::Str(v.get(i).to_string()),
            ColumnView::Oid(v) => Value::Oid(v[i]),
            ColumnView::Date(v) => Value::Date(v[i]),
        })
    }

    /// Borrowed string at row `i` (no clone); `None` when out of range or
    /// not a string tail.
    pub fn str_at(&self, i: usize) -> Option<&str> {
        match self.view() {
            ColumnView::Str(v) if i < v.len() => Some(v.get(i)),
            _ => None,
        }
    }

    /// Oid slice view; errors if the tail is not oid.
    pub fn as_oids(&self) -> Result<&[u64]> {
        match self.view() {
            ColumnView::Oid(v) => Ok(v),
            other => Err(EngineError::TypeMismatch {
                op: "as_oids".into(),
                expected: "bat[:oid]".into(),
                got: other.tail_type().to_string(),
            }),
        }
    }

    /// Int slice view.
    pub fn as_ints(&self) -> Result<&[i64]> {
        match self.view() {
            ColumnView::Int(v) => Ok(v),
            other => Err(EngineError::TypeMismatch {
                op: "as_ints".into(),
                expected: "bat[:int]".into(),
                got: other.tail_type().to_string(),
            }),
        }
    }

    /// Dbl slice view.
    pub fn as_dbls(&self) -> Result<&[f64]> {
        match self.view() {
            ColumnView::Dbl(v) => Ok(v),
            other => Err(EngineError::TypeMismatch {
                op: "as_dbls".into(),
                expected: "bat[:dbl]".into(),
                got: other.tail_type().to_string(),
            }),
        }
    }

    /// Bit slice view.
    pub fn as_bits(&self) -> Result<&[bool]> {
        match self.view() {
            ColumnView::Bit(v) => Ok(v),
            other => Err(EngineError::TypeMismatch {
                op: "as_bits".into(),
                expected: "bat[:bit]".into(),
                got: other.tail_type().to_string(),
            }),
        }
    }

    /// Date slice view.
    pub fn as_dates(&self) -> Result<&[i32]> {
        match self.view() {
            ColumnView::Date(v) => Ok(v),
            other => Err(EngineError::TypeMismatch {
                op: "as_dates".into(),
                expected: "bat[:date]".into(),
                got: other.tail_type().to_string(),
            }),
        }
    }

    /// String view (codes plus dictionary).
    pub fn as_strs(&self) -> Result<StrView<'_>> {
        match self.view() {
            ColumnView::Str(v) => Ok(v),
            other => Err(EngineError::TypeMismatch {
                op: "as_strs".into(),
                expected: "bat[:str]".into(),
                got: other.tail_type().to_string(),
            }),
        }
    }

    /// The dense oid range `first..first+len` when this BAT is a dense
    /// candidate list, enabling O(1) projection/selection fast paths.
    pub fn as_dense_range(&self) -> Option<Range<u64>> {
        if !self.dense {
            return None;
        }
        match self.view() {
            ColumnView::Oid(v) => {
                let first = v.first().copied().unwrap_or(0);
                Some(first..first + v.len() as u64)
            }
            _ => None,
        }
    }

    /// True when `self` and `other` are views over the same allocation —
    /// the witness that an operation was zero-copy.
    pub fn shares_buffer(&self, other: &Bat) -> bool {
        self.buf.same_alloc(&other.buf)
    }

    /// Approximate heap footprint of the *window* in bytes; feeds the trace
    /// `rss` field. O(1) for every tail type: a string window counts its
    /// 4-byte codes plus its dictionary's [`StrDict::bytes`]. Shared buffers
    /// and dictionaries are counted once per view on purpose — the estimate
    /// tracks reachable, not unique, bytes.
    pub fn bytes(&self) -> usize {
        match self.view() {
            ColumnView::Bit(v) => v.len(),
            ColumnView::Int(v) => v.len() * 8,
            ColumnView::Dbl(v) => v.len() * 8,
            ColumnView::Oid(v) => v.len() * 8,
            ColumnView::Date(v) => v.len() * 4,
            ColumnView::Str(v) => v.len() * 4 + v.dict().bytes(),
        }
    }

    /// Copy the window out into owned column data (the CoW slow path).
    /// String codes are copied; the dictionary is shared.
    pub fn to_column_data(&self) -> ColumnData {
        match self.view() {
            ColumnView::Bit(v) => ColumnData::Bit(v.to_vec()),
            ColumnView::Int(v) => ColumnData::Int(v.to_vec()),
            ColumnView::Dbl(v) => ColumnData::Dbl(v.to_vec()),
            ColumnView::Str(v) => ColumnData::Str {
                codes: v.codes().to_vec(),
                dict: Arc::clone(v.dict()),
            },
            ColumnView::Oid(v) => ColumnData::Oid(v.to_vec()),
            ColumnView::Date(v) => ColumnData::Date(v.to_vec()),
        }
    }

    /// Fetch tail values at the given positions (the projection kernel).
    /// String columns gather codes and share the dictionary.
    pub fn gather(&self, positions: &[u64]) -> Result<Bat> {
        let n = self.len;
        let check = |o: u64| -> Result<usize> {
            let i = o as usize;
            if i >= n {
                Err(EngineError::OidOutOfRange { oid: o, len: n })
            } else {
                Ok(i)
            }
        };
        fn pick<T: Copy>(
            v: &[T],
            positions: &[u64],
            check: impl Fn(u64) -> Result<usize>,
        ) -> Result<Vec<T>> {
            let mut out = Vec::with_capacity(positions.len());
            for &o in positions {
                out.push(v[check(o)?]);
            }
            Ok(out)
        }
        let buf = match self.view() {
            ColumnView::Bit(v) => Buffer::Bit(pick(v, positions, check)?.into()),
            ColumnView::Int(v) => Buffer::Int(pick(v, positions, check)?.into()),
            ColumnView::Dbl(v) => Buffer::Dbl(pick(v, positions, check)?.into()),
            ColumnView::Str(v) => Buffer::Str {
                codes: pick(v.codes(), positions, check)?.into(),
                dict: Arc::clone(v.dict()),
            },
            ColumnView::Oid(v) => Buffer::Oid(pick(v, positions, check)?.into()),
            ColumnView::Date(v) => Buffer::Date(pick(v, positions, check)?.into()),
        };
        Ok(Bat::from_buffer(buf, false))
    }

    /// Concatenate `other` after `self` (both must share tail type).
    /// Adjacent views over one buffer widen in O(1); otherwise one fresh
    /// buffer is allocated in a single pass.
    pub fn concat(&self, other: &Bat) -> Result<Bat> {
        Bat::pack(&[self.clone(), other.clone()])
    }

    /// Multi-way concatenation — the `mat.pack` kernel. Checks tail types,
    /// then: (a) if every part is a view over the same buffer and the
    /// windows are adjacent in order, returns a widened view without
    /// touching data (the mitosis reassembly fast path); (b) otherwise
    /// copies all parts into one fresh buffer in a single pass. String
    /// parts over one dictionary keep their codes and share it; parts over
    /// different dictionaries are re-coded into one merged dictionary.
    pub fn pack(parts: &[Bat]) -> Result<Bat> {
        let Some(first) = parts.first() else {
            return Err(EngineError::Other("mat.pack of zero parts".into()));
        };
        for p in &parts[1..] {
            if std::mem::discriminant(&p.buf) != std::mem::discriminant(&first.buf) {
                return Err(EngineError::TypeMismatch {
                    op: "bat.append".into(),
                    expected: first.tail_type().to_string(),
                    got: p.tail_type().to_string(),
                });
            }
        }
        if parts.len() == 1 {
            let mut out = first.clone();
            out.sorted = false;
            return Ok(out);
        }

        if !force_copy() {
            // Zero-copy widening: all parts adjacent views of one buffer.
            let adjacent = parts
                .windows(2)
                .all(|w| w[0].buf.same_alloc(&w[1].buf) && w[0].off + w[0].len == w[1].off);
            if adjacent {
                return Ok(Bat {
                    buf: first.buf.clone(),
                    off: first.off,
                    len: parts.iter().map(|p| p.len).sum(),
                    sorted: false,
                    dense: parts.iter().all(|p| p.dense),
                });
            }
        }

        let total: usize = parts.iter().map(|p| p.len).sum();
        fn splice<'a, T: Copy + 'a>(
            total: usize,
            parts: &'a [Bat],
            slice: impl Fn(ColumnView<'a>) -> &'a [T],
        ) -> Arc<[T]> {
            let mut out = Vec::with_capacity(total);
            for p in parts {
                out.extend_from_slice(slice(p.view()));
            }
            out.into()
        }
        macro_rules! typed {
            ($variant:path) => {
                |v| match v {
                    $variant(v) => v,
                    _ => unreachable!("tail types checked above"),
                }
            };
        }
        let buf = match first.view() {
            ColumnView::Bit(_) => Buffer::Bit(splice(total, parts, typed!(ColumnView::Bit))),
            ColumnView::Int(_) => Buffer::Int(splice(total, parts, typed!(ColumnView::Int))),
            ColumnView::Dbl(_) => Buffer::Dbl(splice(total, parts, typed!(ColumnView::Dbl))),
            ColumnView::Str(_) => pack_strs(total, parts),
            ColumnView::Oid(_) => Buffer::Oid(splice(total, parts, typed!(ColumnView::Oid))),
            ColumnView::Date(_) => Buffer::Date(splice(total, parts, typed!(ColumnView::Date))),
        };
        Ok(Bat::from_buffer(buf, false))
    }

    /// Positional slice `[lo, hi)` clamped to the BAT length — an O(1)
    /// metadata operation: the result is a narrower view of the same
    /// buffer. Sortedness and density survive slicing.
    pub fn slice(&self, lo: usize, hi: usize) -> Bat {
        let hi = hi.min(self.len);
        let lo = lo.min(hi);
        if force_copy() {
            let mut out =
                Bat::from_buffer(self.slice_view(lo, hi).to_column_data().into(), self.sorted);
            out.dense = self.dense;
            return out;
        }
        self.slice_view(lo, hi)
    }

    fn slice_view(&self, lo: usize, hi: usize) -> Bat {
        Bat {
            buf: self.buf.clone(),
            off: self.off + lo,
            len: hi - lo,
            sorted: self.sorted,
            dense: self.dense,
        }
    }
}

/// Concatenate string parts (tail types already checked). Codes of parts
/// over the first part's dictionary are copied as they are; a part over
/// any other dictionary is re-coded, string by string, into a merged
/// dictionary that extends the first one.
fn pack_strs(total: usize, parts: &[Bat]) -> Buffer {
    let views: Vec<StrView<'_>> = parts
        .iter()
        .map(|p| match p.view() {
            ColumnView::Str(v) => v,
            _ => unreachable!("tail types checked above"),
        })
        .collect();
    let base = views[0].dict();
    let mut codes = Vec::with_capacity(total);
    let mut merged: Option<StrDictBuilder> = None;
    for v in &views {
        if Arc::ptr_eq(v.dict(), base) {
            codes.extend_from_slice(v.codes());
            continue;
        }
        let merged = merged.get_or_insert_with(|| StrDictBuilder::extending(base));
        let mut recode = vec![u32::MAX; v.dict().len()];
        for &c in v.codes() {
            let slot = &mut recode[c as usize];
            if *slot == u32::MAX {
                *slot = merged.intern(v.dict().get(c));
            }
            codes.push(*slot);
        }
    }
    Buffer::Str {
        codes: codes.into(),
        dict: merged.map_or_else(|| Arc::clone(base), StrDictBuilder::finish),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_oids_are_sorted() {
        let b = Bat::dense_oids(5);
        assert_eq!(b.len(), 5);
        assert!(b.sorted);
        assert_eq!(b.as_oids().unwrap(), &[0, 1, 2, 3, 4]);
        assert_eq!(b.tail_type(), MalType::Oid);
        assert_eq!(b.mal_type(), MalType::bat(MalType::Oid));
        assert_eq!(b.as_dense_range(), Some(0..5));
    }

    #[test]
    fn oids_detects_sortedness_and_density() {
        assert!(Bat::oids(vec![1, 3, 3, 7]).sorted);
        assert!(!Bat::oids(vec![3, 1]).sorted);
        assert_eq!(Bat::oids(vec![1, 3, 3, 7]).as_dense_range(), None);
        assert_eq!(Bat::oids(vec![4, 5, 6]).as_dense_range(), Some(4..7));
    }

    #[test]
    fn get_returns_typed_values() {
        let b = Bat::ints(vec![10, 20]);
        assert_eq!(b.get(0), Some(Value::Int(10)));
        assert_eq!(b.get(2), None);
        let s = Bat::strs(vec!["a".into()]);
        assert_eq!(s.get(0), Some(Value::Str("a".into())));
        assert_eq!(s.str_at(0), Some("a"));
        assert_eq!(s.str_at(1), None);
        assert_eq!(b.str_at(0), None);
    }

    #[test]
    fn gather_projects_positions() {
        let col = Bat::ints(vec![10, 20, 30, 40]);
        let out = col.gather(&[3, 1]).unwrap();
        assert_eq!(out.as_ints().unwrap(), &[40, 20]);
    }

    #[test]
    fn gather_shares_string_dictionary() {
        let col = Bat::from_strs(["aa", "bb"]);
        let out = col.gather(&[1, 0, 1]).unwrap();
        let (src, dst) = (col.as_strs().unwrap(), out.as_strs().unwrap());
        assert!(Arc::ptr_eq(src.dict(), dst.dict()));
        assert_eq!(dst.codes(), &[1, 0, 1]);
        assert_eq!(dst.iter().collect::<Vec<_>>(), ["bb", "aa", "bb"]);
    }

    #[test]
    fn strs_deduplicate_into_one_dictionary() {
        let col = Bat::from_strs(["x", "y", "x", "", "y", ""]);
        let v = col.as_strs().unwrap();
        assert_eq!(v.dict().len(), 3);
        assert_eq!(v.codes(), &[0, 1, 0, 2, 1, 2]);
        assert_eq!(v.get(3), "");
        // Growing past the index's first capacity keeps every code stable.
        let many: Vec<String> = (0..1000).map(|i| format!("s{}", i % 300)).collect();
        let col = Bat::from_strs(&many);
        let v = col.as_strs().unwrap();
        assert_eq!(v.dict().len(), 300);
        assert!(v.iter().eq(many.iter().map(String::as_str)));
    }

    #[test]
    #[should_panic(expected = "outside its dictionary")]
    fn new_rejects_codes_outside_the_dictionary() {
        let dict = Bat::from_strs(["only"]).as_strs().unwrap().dict().clone();
        Bat::new(ColumnData::Str {
            codes: vec![0, 1],
            dict,
        });
    }

    #[test]
    fn gather_checks_bounds() {
        let col = Bat::ints(vec![1]);
        assert!(matches!(
            col.gather(&[5]),
            Err(EngineError::OidOutOfRange { oid: 5, len: 1 })
        ));
    }

    #[test]
    fn concat_same_type() {
        let a = Bat::ints(vec![1, 2]);
        let b = Bat::ints(vec![3]);
        assert_eq!(a.concat(&b).unwrap().as_ints().unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn concat_type_mismatch() {
        let a = Bat::ints(vec![1]);
        let b = Bat::dbls(vec![1.0]);
        assert!(a.concat(&b).is_err());
    }

    #[test]
    fn slice_clamps() {
        let b = Bat::ints(vec![1, 2, 3, 4]);
        assert_eq!(b.slice(1, 3).as_ints().unwrap(), &[2, 3]);
        assert_eq!(b.slice(3, 99).as_ints().unwrap(), &[4]);
        assert_eq!(b.slice(9, 99).len(), 0);
    }

    #[test]
    fn slice_is_a_view() {
        let b = Bat::ints((0..100).collect());
        let s = b.slice(10, 20);
        assert!(s.shares_buffer(&b));
        assert_eq!(s.as_ints().unwrap(), &(10..20).collect::<Vec<i64>>()[..]);
        // Slicing a slice composes offsets.
        let s2 = s.slice(2, 5);
        assert!(s2.shares_buffer(&b));
        assert_eq!(s2.as_ints().unwrap(), &[12, 13, 14]);
    }

    #[test]
    fn slice_preserves_density() {
        let b = Bat::dense_oids(100);
        let s = b.slice(40, 60);
        assert_eq!(s.as_dense_range(), Some(40..60));
        assert!(s.sorted);
    }

    #[test]
    fn pack_of_adjacent_slices_widens() {
        let b = Bat::ints((0..12).collect());
        let parts = vec![b.slice(0, 4), b.slice(4, 8), b.slice(8, 12)];
        let packed = Bat::pack(&parts).unwrap();
        assert!(packed.shares_buffer(&b));
        assert_eq!(packed.as_ints().unwrap(), b.as_ints().unwrap());
    }

    #[test]
    fn pack_of_scattered_parts_copies() {
        let a = Bat::ints(vec![1, 2]);
        let b = Bat::ints(vec![3]);
        let packed = Bat::pack(&[b.clone(), a.clone()]).unwrap();
        assert!(!packed.shares_buffer(&a));
        assert_eq!(packed.as_ints().unwrap(), &[3, 1, 2]);
    }

    #[test]
    fn force_copy_materialises_slices() {
        let b = Bat::ints((0..10).collect());
        set_force_copy(true);
        let s = b.slice(2, 6);
        set_force_copy(false);
        assert!(!s.shares_buffer(&b));
        assert_eq!(s.as_ints().unwrap(), &[2, 3, 4, 5]);
        // Observationally identical to the view it replaces.
        assert_eq!(s, b.slice(2, 6));
    }

    #[test]
    fn logical_equality_ignores_representation() {
        let big = Bat::ints(vec![9, 1, 2, 3, 9]);
        let view = big.slice(1, 4);
        let owned = Bat::ints(vec![1, 2, 3]);
        assert_eq!(view, owned);
        assert_ne!(view, Bat::ints(vec![1, 2, 4]));
        assert_ne!(view, Bat::oids(vec![1, 2, 3]));
    }

    #[test]
    fn bytes_estimates() {
        assert_eq!(Bat::ints(vec![1, 2]).bytes(), 16);
        assert_eq!(Bat::dates(vec![1]).bytes(), 4);
        // Strings: 4 bytes per row in the window plus the dictionary's
        // heap ("abc" + "de" = 5 bytes) and one offset per entry.
        let s = Bat::from_strs(["abc", "de", "abc", "de"]);
        let offset = std::mem::size_of::<usize>();
        assert_eq!(s.slice(1, 3).bytes(), 2 * 4 + 5 + 2 * offset);
        // The window, not the buffer, is what's counted.
        assert_eq!(Bat::ints(vec![1, 2, 3, 4]).slice(0, 2).bytes(), 16);
    }

    #[test]
    fn typed_views_reject_wrong_type() {
        let b = Bat::ints(vec![1]);
        assert!(b.as_oids().is_err());
        assert!(b.as_dbls().is_err());
        assert!(b.as_bits().is_err());
        assert!(b.as_dates().is_err());
        assert!(b.as_strs().is_err());
        assert!(b.as_ints().is_ok());
    }

    #[test]
    fn empty_of_scalar_types() {
        for t in [
            MalType::Bit,
            MalType::Int,
            MalType::Dbl,
            MalType::Str,
            MalType::Oid,
            MalType::Date,
        ] {
            let c = ColumnData::empty_of(&t).unwrap();
            assert_eq!(c.tail_type(), t);
            assert!(c.is_empty());
        }
        assert!(ColumnData::empty_of(&MalType::bat(MalType::Int)).is_err());
    }
}

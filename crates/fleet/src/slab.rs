//! The storage of a tenant's app table: columns that grow a segment at
//! a time, the size classes an app's bins and idle-time history live in,
//! and the index from app names to rows.
//!
//! Every column of a table holds one entry of `stride` values per row,
//! in segments of [`SEGMENT_ROWS`] rows. A full column opens one more
//! segment; it never reallocates, so a first sight past a full table
//! copies nothing, and growing a table never holds two copies of a
//! column. Rows are never removed: an app keeps its row for as long as
//! the table lives.
//!
//! What an app holds a varying number of lives in [`Classes`]: a few
//! fixed-stride columns, one per size class (4, 8, 16, ... values, up to
//! a cap). An app's values live in the smallest class that holds them,
//! and move up one class when they fill it below the cap — the sizes a
//! growing `Vec` takes, without a heap block per app. Each class stays
//! dense: the spot an app moves out of is filled with the class's last
//! one, and the class's last segment is freed when it empties. The one
//! mechanism serves both:
//!
//! * an app's history ([`Rings`]): a ring of idle times in integer
//!   milliseconds, a `u32` each, in classes up to the history cap. A
//!   value no `u32` holds — a gap of 49.7 days or more, or a value a
//!   snapshot brought — is kept beside the table, exactly, in ring order;
//! * an app's bins ([`BinTable`]): its nonzero bins as 8-byte
//!   `(bin, count)` entries sorted by bin, in classes of 4 to 64 entries.
//!   An app with more moves for good to a dense spot of every bin's
//!   count, as the paper sizes the state (240 × 4 B); an app seen once,
//!   or only out of bounds, holds no bins at all.

use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, VecDeque};
use std::hash::BuildHasher;

use sitw_core::{history_code, idle_minutes, HistoryView, ESCAPED};
use sitw_stats::{BinCounts, BinCountsMut, BinEntry, BinsRef, SparseBins};

/// Rows per segment of every column. A table holds fewer than one
/// segment of unused rows per column.
pub(crate) const SEGMENT_ROWS: usize = 16;

/// One column of a table: `stride` values per row, stored in segments of
/// [`SEGMENT_ROWS`] rows that are allocated full size and never moved.
#[derive(Debug)]
pub(crate) struct Column<T> {
    stride: usize,
    rows: usize,
    segments: Vec<Vec<T>>,
}

impl<T> Column<T> {
    /// An empty column of `stride` values per row.
    pub(crate) fn new(stride: usize) -> Self {
        Self {
            stride,
            rows: 0,
            segments: Vec::new(),
        }
    }

    /// Rows held.
    pub(crate) fn len(&self) -> usize {
        self.rows
    }

    /// Values per row.
    pub(crate) fn row_len(&self) -> usize {
        self.stride
    }

    /// Rows the allocated segments hold, used or not.
    pub(crate) fn capacity(&self) -> usize {
        self.segments.len() * SEGMENT_ROWS
    }

    /// Makes room in the segment list (not in the segments) for `rows`
    /// more rows.
    pub(crate) fn reserve(&mut self, rows: usize) {
        let segments = (self.rows + rows).div_ceil(SEGMENT_ROWS);
        self.segments
            .reserve(segments.saturating_sub(self.segments.len()));
    }

    /// Appends a row: `fill` pushes exactly `stride` values into the
    /// segment it is given, which has room for them. Returns whether a
    /// segment was opened for it.
    #[inline]
    pub(crate) fn push_with(&mut self, fill: impl FnOnce(&mut Vec<T>)) -> bool {
        let opened = self.rows == self.capacity();
        if opened {
            self.segments
                .push(Vec::with_capacity(SEGMENT_ROWS * self.stride));
        }
        let segment = &mut self.segments[self.rows / SEGMENT_ROWS];
        fill(segment);
        debug_assert_eq!(segment.len(), (self.rows % SEGMENT_ROWS + 1) * self.stride);
        self.rows += 1;
        opened
    }

    /// Appends a row of one value (a column of stride 1).
    pub(crate) fn push(&mut self, value: T) -> bool {
        debug_assert_eq!(self.stride, 1);
        self.push_with(|segment| segment.push(value))
    }

    /// Row `row`'s values.
    #[inline]
    pub(crate) fn row(&self, row: usize) -> &[T] {
        let at = row % SEGMENT_ROWS * self.stride;
        &self.segments[row / SEGMENT_ROWS][at..at + self.stride]
    }

    /// Row `row`'s values, to write.
    #[inline]
    pub(crate) fn row_mut(&mut self, row: usize) -> &mut [T] {
        let at = row % SEGMENT_ROWS * self.stride;
        &mut self.segments[row / SEGMENT_ROWS][at..at + self.stride]
    }

    /// Row `row`'s value (a column of stride 1).
    #[inline]
    pub(crate) fn get(&self, row: usize) -> &T {
        &self.segments[row / SEGMENT_ROWS][row % SEGMENT_ROWS]
    }

    /// Row `row`'s value (a column of stride 1), to write.
    #[inline]
    pub(crate) fn get_mut(&mut self, row: usize) -> &mut T {
        &mut self.segments[row / SEGMENT_ROWS][row % SEGMENT_ROWS]
    }

    /// Rows `a < b`'s values, to write at once.
    pub(crate) fn rows_mut(&mut self, a: usize, b: usize) -> (&mut [T], &mut [T]) {
        assert!(a < b, "two rows in order");
        let (sa, sb) = (a / SEGMENT_ROWS, b / SEGMENT_ROWS);
        let (at, bt) = (
            a % SEGMENT_ROWS * self.stride,
            b % SEGMENT_ROWS * self.stride,
        );
        let stride = self.stride;
        if sa == sb {
            let (low, high) = self.segments[sa].split_at_mut(bt);
            (&mut low[at..at + stride], &mut high[..stride])
        } else {
            let (low, high) = self.segments.split_at_mut(sb);
            (&mut low[sa][at..at + stride], &mut high[0][bt..bt + stride])
        }
    }

    /// Drops the last row; a segment left empty is freed.
    pub(crate) fn pop(&mut self) {
        self.rows -= 1;
        let segment = self.rows / SEGMENT_ROWS;
        if self.rows.is_multiple_of(SEGMENT_ROWS) {
            self.segments.truncate(segment);
        } else {
            let keep = self.rows % SEGMENT_ROWS * self.stride;
            self.segments[segment].truncate(keep);
        }
    }

    /// Every row's value in row order (a column of stride 1).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.segments.iter().flatten()
    }
}

impl<T: Copy> Column<T> {
    /// Appends a row holding `values` (`stride` of them).
    pub(crate) fn push_row(&mut self, values: &[T]) -> bool {
        assert_eq!(values.len(), self.stride, "a row is one stride");
        self.push_with(|segment| segment.extend_from_slice(values))
    }
}

/// One size class of [`Classes`]: a column of spots of one stride, kept
/// dense — a spot given up is filled with the class's last one — beside
/// the row each spot belongs to. The owners, 4 bytes a spot, are one
/// `Vec` that doubles: a segment of them apiece would be an allocation
/// per 16 spots for 64 bytes.
#[derive(Debug)]
struct Class<T> {
    values: Column<T>,
    owners: Vec<u32>,
}

/// Size classes for the values a row holds a varying number of: one
/// class per stride `4, 8, 16, ...` below `cap`, and one of the cap
/// itself (none for a cap of 0). A row's values live at a spot of the
/// smallest class that holds them; the row keeps the spot and how many
/// values it holds, which names the class.
#[derive(Debug)]
pub(crate) struct Classes<T> {
    classes: Vec<Class<T>>,
}

impl<T: Copy + Default> Classes<T> {
    /// Classes for up to `cap` values per row.
    pub(crate) fn new(cap: usize) -> Self {
        let mut strides = Vec::new();
        let mut stride = 4;
        while stride < cap {
            strides.push(stride);
            stride *= 2;
        }
        if cap > 0 {
            strides.push(cap);
        }
        Self {
            classes: strides
                .into_iter()
                .map(|stride| Class {
                    values: Column::new(stride),
                    owners: Vec::new(),
                })
                .collect(),
        }
    }

    /// The most values a row holds (0 with no class).
    pub(crate) fn cap(&self) -> usize {
        self.classes.last().map_or(0, |c| c.values.row_len())
    }

    /// The class of a row holding `len > 0` values: the smallest that
    /// holds them.
    #[inline]
    pub(crate) fn class_of(&self, len: u32) -> usize {
        let ceil_log2 = u32::BITS - (len.max(4) - 1).leading_zeros();
        (ceil_log2 as usize - 2).min(self.classes.len() - 1)
    }

    /// The values at `spot` of class `class`, the whole stride.
    #[inline]
    pub(crate) fn spot(&self, class: usize, spot: u32) -> &[T] {
        self.classes[class].values.row(spot as usize)
    }

    /// The values at `spot` of class `class`, to write.
    #[inline]
    pub(crate) fn spot_mut(&mut self, class: usize, spot: u32) -> &mut [T] {
        self.classes[class].values.row_mut(spot as usize)
    }

    /// A spot at the end of class `class` for row `row`: `fill` pushes
    /// at most the class's stride of values into the segment it is
    /// given, and defaults fill the rest.
    pub(crate) fn take(&mut self, class: usize, row: usize, fill: impl FnOnce(&mut Vec<T>)) -> u32 {
        let c = &mut self.classes[class];
        let stride = c.values.row_len();
        c.values.push_with(|segment| {
            let end = segment.len() + stride;
            fill(segment);
            segment.resize(end, T::default());
        });
        c.owners.push(row as u32);
        (c.values.len() - 1) as u32
    }

    /// Gives `spot` of class `class` up: the class's last spot moves
    /// into it, and a segment left empty is freed. Returns the row whose
    /// spot moved, and where to, for its owner to record.
    pub(crate) fn give(&mut self, class: usize, spot: u32) -> Option<(usize, u32)> {
        let c = &mut self.classes[class];
        let last = c.values.len() - 1;
        let moved = (spot as usize != last).then(|| {
            let (to, from) = c.values.rows_mut(spot as usize, last);
            to.copy_from_slice(from);
            let owner = c.owners[last];
            c.owners[spot as usize] = owner;
            (owner as usize, spot)
        });
        c.values.pop();
        c.owners.pop();
        moved
    }

    /// Moves row `row`'s values, which fill `spot` of class `class`, one
    /// class up with `value` inserted at index `at`. Returns the new spot
    /// and the row whose spot moved into the old one, and where
    /// ([`Classes::give`]).
    pub(crate) fn grow(
        &mut self,
        class: usize,
        spot: u32,
        row: usize,
        at: usize,
        value: T,
    ) -> (u32, Option<(usize, u32)>) {
        let (lower, upper) = self.classes.split_at_mut(class + 1);
        let from = lower[class].values.row(spot as usize);
        let (to, owners) = (&mut upper[0].values, &mut upper[0].owners);
        let fill = to.row_len() - from.len() - 1;
        to.push_with(|segment| {
            segment.extend_from_slice(&from[..at]);
            segment.push(value);
            segment.extend_from_slice(&from[at..]);
            segment.resize(segment.len() + fill, T::default());
        });
        owners.push(row as u32);
        let grown = (to.len() - 1) as u32;
        (grown, self.give(class, spot))
    }
}

/// Where one app's idle-time history lives in its table's [`Rings`]:
/// its spot in the size class its length selects, the index of its
/// oldest value there, and how many values it holds. It is kept in the
/// app's row; the default holds nothing and has no spot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Ring {
    spot: u32,
    head: u32,
    len: u32,
}

impl Ring {
    /// The ring's values moved to `spot` of their class.
    pub(crate) fn moved_to(&mut self, spot: u32) {
        self.spot = spot;
    }
}

/// The history rings of one table, for histories capped at `cap`
/// values: each a ring of idle times in integer milliseconds, a `u32`
/// each ([`sitw_core::history_code`]), in [`Classes`] up to the cap.
/// Each row keeps its [`Ring`].
#[derive(Debug)]
pub(crate) struct Rings {
    classes: Classes<u32>,
    /// Per row, the values its [`ESCAPED`] codes stand for, in ring
    /// order: a gap of 49.7 days or more, or a value a snapshot brought
    /// that is not a whole number of milliseconds below the codes.
    escaped: BTreeMap<u32, VecDeque<f64>>,
    /// The values the ARIMA branch reads, rebuilt in minutes: reserved
    /// to the cap by the first read, reused by every later one.
    scratch: Vec<f64>,
}

impl Rings {
    /// Rings for histories of at most `cap` values (none for 0).
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            classes: Classes::new(cap),
            escaped: BTreeMap::new(),
            scratch: Vec::new(),
        }
    }

    /// The most values a history holds.
    pub(crate) fn cap(&self) -> usize {
        self.classes.cap()
    }

    /// The ring of row `row`, holding `codes`, oldest first (at most
    /// `cap` of them), and the values its escaped codes stand for, in
    /// order — taken, when there are any.
    pub(crate) fn restore(&mut self, row: usize, codes: &[u32], escaped: &mut Vec<f64>) -> Ring {
        assert!(codes.len() <= self.cap(), "a history past its cap");
        let len = codes.len() as u32;
        if len == 0 {
            return Ring::default();
        }
        if !escaped.is_empty() {
            self.escaped
                .insert(row as u32, VecDeque::from(std::mem::take(escaped)));
        }
        let class = self.classes.class_of(len);
        let spot = self
            .classes
            .take(class, row, |segment| segment.extend_from_slice(codes));
        Ring { spot, head: 0, len }
    }

    /// Row `row`'s `ring`, oldest first: its codes as the two runs of
    /// the ring, and the values its escaped codes stand for.
    pub(crate) fn view(&self, ring: &Ring, row: usize) -> HistoryView<'_> {
        let codes = if ring.len == 0 {
            [&[][..]; 2]
        } else {
            let class = self.classes.class_of(ring.len);
            let values = &self.classes.spot(class, ring.spot)[..ring.len as usize];
            let (newer, older) = values.split_at(ring.head as usize);
            [older, newer]
        };
        let escaped = match self.escaped.get(&(row as u32)) {
            Some(values) => {
                let (older, newer) = values.as_slices();
                [older, newer]
            }
            None => [&[][..]; 2],
        };
        HistoryView::Millis { codes, escaped }
    }

    /// Row `row`'s `ring` as an [`sitw_core::IdleHistory`].
    pub(crate) fn history<'a>(&'a mut self, ring: &'a mut Ring, row: usize) -> RingHistory<'a> {
        RingHistory {
            rings: self,
            ring,
            row,
            moved: None,
        }
    }
}

/// One row's ring with the table's rings it lives in: the
/// [`sitw_core::IdleHistory`] a decision records into.
pub(crate) struct RingHistory<'a> {
    rings: &'a mut Rings,
    ring: &'a mut Ring,
    row: usize,
    /// Another row's ring this one's move displaced, and its new spot.
    moved: Option<(usize, u32)>,
}

impl RingHistory<'_> {
    /// The row whose ring a push moved, and its new spot: the caller
    /// records it in that row's [`Ring`] ([`Ring::moved_to`]).
    pub(crate) fn moved(&self) -> Option<(usize, u32)> {
        self.moved
    }
}

impl sitw_core::IdleHistory for RingHistory<'_> {
    fn len(&self) -> usize {
        self.ring.len as usize
    }

    // sitw-lint: hot-path
    #[inline]
    fn push(&mut self, it: u64, cap: usize) {
        debug_assert_eq!(cap, self.rings.cap(), "one cap per table");
        if cap == 0 {
            return;
        }
        let code = u32::try_from(it).unwrap_or(ESCAPED);
        let Ring { spot, head, len } = *self.ring;
        let classes = &mut self.rings.classes;
        let mut dropped = 0;
        if len == 0 {
            let spot = classes.take(0, self.row, |segment| segment.push(code));
            *self.ring = Ring {
                spot,
                head: 0,
                len: 1,
            };
        } else {
            let class = classes.class_of(len);
            let values = classes.spot_mut(class, spot);
            let stride = values.len() as u32;
            if len < stride {
                // Room at the end: below its stride a ring never wrapped.
                values[len as usize] = code;
                self.ring.len = len + 1;
            } else if len as usize == cap {
                // Full at the cap: the newest takes the oldest one's place.
                dropped = std::mem::replace(&mut values[head as usize], code);
                self.ring.head = (head + 1) % stride;
            } else {
                // Full below the cap: one class up, oldest first.
                let (spot, moved) = classes.grow(class, spot, self.row, len as usize, code);
                *self.ring = Ring {
                    spot,
                    head: 0,
                    len: len + 1,
                };
                self.moved = moved;
            }
        }
        if code == ESCAPED || dropped == ESCAPED {
            self.escape(
                dropped == ESCAPED,
                (code == ESCAPED).then(|| idle_minutes(it)),
            );
        }
    }

    fn values(&mut self) -> &[f64] {
        let mut scratch = std::mem::take(&mut self.rings.scratch);
        scratch.clear();
        scratch.reserve_exact(self.rings.cap());
        scratch.extend(self.rings.view(self.ring, self.row).values());
        self.rings.scratch = scratch;
        &self.rings.scratch
    }
}

impl RingHistory<'_> {
    /// Keeps the row's escaped values in step with its ring: the oldest
    /// goes when its code was overwritten, and the newest comes.
    #[cold]
    fn escape(&mut self, drop_oldest: bool, newest: Option<f64>) {
        let row = self.row as u32;
        let values = self.rings.escaped.entry(row).or_default();
        if drop_oldest {
            values.pop_front();
        }
        if let Some(value) = newest {
            values.push_back(value);
        }
        if values.is_empty() {
            self.rings.escaped.remove(&row);
        }
    }
}

/// Bins per entry of the largest sparse class.
const SPARSE_CAP: usize = 64;

/// [`BinSlot::len`] of an app whose bins are dense.
const DENSE: u8 = u8::MAX;

/// The entries of the largest sparse class a table of `num_bins` bins
/// keeps: strides `4, 8, ..., 64` for as long as a full class holds
/// fewer bytes than the dense form (an entry is 8 B, a count 4), and
/// none for a geometry whose bins a `u16` cannot name.
fn sparse_cap(num_bins: usize) -> usize {
    let mut cap = 0;
    if num_bins <= 1 << 16 {
        let mut stride = 4;
        while stride <= SPARSE_CAP && 2 * stride < num_bins {
            cap = stride;
            stride *= 2;
        }
    }
    cap
}

/// Where one app's bins live in its table's [`BinTable`]: its spot, and
/// how many entries it holds sparsely (which names the class) or
/// [`DENSE`]. It is kept in the app's row; the default holds no bins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct BinSlot {
    spot: u32,
    len: u8,
}

impl BinSlot {
    /// The bins moved to `spot` of their class.
    pub(crate) fn moved_to(&mut self, spot: u32) {
        self.spot = spot;
    }
}

/// The bins of one table's apps, of `num_bins` bins each: an app's
/// nonzero bins as [`BinEntry`]s sorted by bin, in [`Classes`] of up to
/// 64 entries; an app with more moves for good to a spot of every bin's
/// count in the dense column, whose spots never move. An app that has
/// recorded nothing in bounds holds neither.
#[derive(Debug)]
pub(crate) struct BinTable {
    sparse: Classes<BinEntry>,
    /// One row of `num_bins` counts per dense app.
    dense: Column<u32>,
}

impl BinTable {
    /// The bins of a table of `num_bins` bins per app.
    pub(crate) fn new(num_bins: usize) -> Self {
        Self {
            sparse: Classes::new(sparse_cap(num_bins)),
            dense: Column::new(num_bins),
        }
    }

    /// Bins per app.
    pub(crate) fn num_bins(&self) -> usize {
        self.dense.row_len()
    }

    /// The bins `slot` holds.
    #[inline]
    pub(crate) fn view(&self, slot: &BinSlot) -> BinsRef<'_> {
        let entries = match slot.len {
            DENSE => return BinsRef::Dense(self.dense.row(slot.spot as usize)),
            0 => &[][..],
            n => {
                let class = self.sparse.class_of(u32::from(n));
                &self.sparse.spot(class, slot.spot)[..usize::from(n)]
            }
        };
        BinsRef::Sparse(SparseBins {
            num_bins: self.num_bins(),
            entries,
        })
    }

    /// Row `row`'s bins, at `slot`, to record into.
    pub(crate) fn bins<'a>(&'a mut self, slot: &'a mut BinSlot, row: usize) -> TableBins<'a> {
        TableBins {
            table: self,
            slot,
            row,
            moved: None,
        }
    }

    /// The slot of row `row`, holding `lists`' bins (made for this
    /// table's bin count).
    pub(crate) fn restore(&mut self, row: usize, lists: &HybridLists) -> BinSlot {
        match lists.entries {
            0 => BinSlot::default(),
            DENSE => {
                self.dense.push_row(&lists.words[..self.num_bins()]);
                BinSlot {
                    spot: (self.dense.len() - 1) as u32,
                    len: DENSE,
                }
            }
            n => {
                let pairs = &lists.words[..2 * usize::from(n)];
                let class = self.sparse.class_of(u32::from(n));
                let spot = self.sparse.take(class, row, |segment| {
                    segment.extend(pairs.chunks_exact(2).map(|pair| BinEntry {
                        bin: pair[0] as u16,
                        count: pair[1],
                    }));
                });
                BinSlot { spot, len: n }
            }
        }
    }
}

/// One row's bins with the table's bins they live in: the
/// [`BinCountsMut`] a decision records into.
pub(crate) struct TableBins<'a> {
    table: &'a mut BinTable,
    slot: &'a mut BinSlot,
    row: usize,
    /// Another row's bins this one's move displaced, and their new spot.
    moved: Option<(usize, u32)>,
}

impl TableBins<'_> {
    /// The row whose bins a record moved, and their new spot: the caller
    /// records it in that row's [`BinSlot`] ([`BinSlot::moved_to`]).
    pub(crate) fn moved(&self) -> Option<(usize, u32)> {
        self.moved
    }

    #[inline]
    fn view(&self) -> BinsRef<'_> {
        self.table.view(self.slot)
    }
}

impl BinCounts for TableBins<'_> {
    #[inline]
    fn num_bins(&self) -> usize {
        self.table.num_bins()
    }

    #[inline]
    fn count(&self, bin: usize) -> u32 {
        self.view().count(bin)
    }

    #[inline]
    fn prev_nonempty(&self, bin: usize) -> Option<(usize, u32)> {
        self.view().prev_nonempty(bin)
    }

    #[inline]
    fn next_nonempty(&self, bin: usize) -> Option<(usize, u32)> {
        self.view().next_nonempty(bin)
    }

    fn held(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.view().into_held()
    }
}

impl BinCountsMut for TableBins<'_> {
    // sitw-lint: hot-path
    #[inline]
    fn increment(&mut self, bin: usize) -> Option<u32> {
        let BinSlot { spot, len } = *self.slot;
        let BinTable { sparse, dense } = &mut *self.table;
        if len == DENSE {
            return dense.row_mut(spot as usize).increment(bin);
        }
        let new = BinEntry {
            bin: bin as u16,
            count: 1,
        };
        let held = usize::from(len);
        if held == 0 {
            *self.slot = if sparse.cap() == 0 {
                to_dense(dense, &[], new)
            } else {
                BinSlot {
                    spot: sparse.take(0, self.row, |segment| segment.push(new)),
                    len: 1,
                }
            };
            return Some(0);
        }
        let class = sparse.class_of(u32::from(len));
        let largest = sparse.cap();
        let entries = sparse.spot_mut(class, spot);
        let at = match entries[..held].binary_search_by_key(&new.bin, |e| e.bin) {
            Ok(at) => {
                let c = entries[at].count;
                if c == u32::MAX {
                    return None;
                }
                entries[at].count = c + 1;
                return Some(c);
            }
            Err(at) => at,
        };
        if held < entries.len() {
            entries.copy_within(at..held, at + 1);
            entries[at] = new;
            self.slot.len = len + 1;
        } else if held < largest {
            let (spot, moved) = sparse.grow(class, spot, self.row, at, new);
            *self.slot = BinSlot { spot, len: len + 1 };
            self.moved = moved;
        } else {
            // Past the largest class: every bin's count, for good.
            *self.slot = to_dense(dense, entries, new);
            self.moved = sparse.give(class, spot);
        }
        Some(0)
    }
}

/// The slot of a new spot in `dense` holding `entries` and `new`.
#[cold]
fn to_dense(dense: &mut Column<u32>, entries: &[BinEntry], new: BinEntry) -> BinSlot {
    let num_bins = dense.row_len();
    dense.push_with(|segment| {
        let base = segment.len();
        segment.resize(base + num_bins, 0);
        for e in entries.iter().chain([&new]) {
            segment[base + usize::from(e.bin)] = e.count;
        }
    });
    BinSlot {
        spot: (dense.len() - 1) as u32,
        len: DENSE,
    }
}

/// A hybrid app's bins and history as a restore makes them for a
/// table's [`BinTable`] and [`Rings`], in the blocks its record brought:
/// the part of the conversion that reads no table, so a restore does it
/// on any thread and the insert only copies.
#[derive(Debug)]
pub(crate) struct HybridLists {
    /// The bins — `entries` pairs of `bin, count`, or, for [`DENSE`],
    /// every bin's count — then the history's codes, oldest first.
    words: Vec<u32>,
    entries: u8,
    num_bins: usize,
    /// The values the history's [`ESCAPED`] codes stand for, in order.
    escaped: Vec<f64>,
}

impl HybridLists {
    /// `bins` (every bin's count) and `history` (values, oldest first)
    /// made into lists in their own blocks. `read` sees the bins in the
    /// form a table holds them, before they are packed, and what it
    /// returns comes back beside the lists.
    pub(crate) fn new<R>(
        mut bins: Vec<u32>,
        mut history: Vec<f64>,
        read: impl FnOnce(BinsRef<'_>) -> R,
    ) -> (Self, R) {
        let num_bins = bins.len();
        let cap = sparse_cap(num_bins);
        let mut gathered = [BinEntry::default(); SPARSE_CAP];
        let mut held = 0;
        let mut sparse = true;
        // Eight bins at a time: most runs of them are empty.
        'gather: for (run, counts) in bins.chunks(8).enumerate() {
            if counts.iter().fold(0, |any, &c| any | c) == 0 {
                continue;
            }
            for (k, &count) in counts.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                if held == cap {
                    sparse = false;
                    break 'gather;
                }
                gathered[held] = BinEntry {
                    bin: (run * 8 + k) as u16,
                    count,
                };
                held += 1;
            }
        }
        let (entries, read) = if sparse {
            let read = read(BinsRef::Sparse(SparseBins {
                num_bins,
                entries: &gathered[..held],
            }));
            // `2 × held < num_bins`: the pairs fit where the bins were.
            bins.clear();
            for e in &gathered[..held] {
                bins.extend([u32::from(e.bin), e.count]);
            }
            (held as u8, read)
        } else {
            (DENSE, read(BinsRef::Dense(&bins)))
        };
        bins.reserve_exact(history.len());
        let mut kept = 0;
        for i in 0..history.len() {
            let value = history[i];
            let code = history_code(value);
            bins.push(code);
            if code == ESCAPED {
                history[kept] = value;
                kept += 1;
            }
        }
        history.truncate(kept);
        let lists = HybridLists {
            words: bins,
            entries,
            num_bins,
            escaped: history,
        };
        (lists, read)
    }

    /// Bins per app of the geometry the lists were made for.
    pub(crate) fn num_bins(&self) -> usize {
        self.num_bins
    }

    /// The history's codes, oldest first.
    pub(crate) fn codes(&self) -> &[u32] {
        let bins = match self.entries {
            DENSE => self.num_bins,
            n => 2 * usize::from(n),
        };
        &self.words[bins..]
    }

    /// The history's codes, and the values its escaped ones stand for,
    /// for [`Rings::restore`] to take.
    pub(crate) fn history(&mut self) -> (&[u32], &mut Vec<f64>) {
        let bins = self.words.len() - self.codes().len();
        (&self.words[bins..], &mut self.escaped)
    }

    /// The lists' blocks, to drop.
    pub(crate) fn into_blocks(self) -> (Vec<u32>, Vec<f64>) {
        (self.words, self.escaped)
    }
}

/// Names up to this many bytes live in their row.
const INLINE_NAME: usize = 22;

/// An app's name as its row keeps it: up to 22 bytes in the row, a
/// longer one in a block of its own — so a first sight of a short name
/// allocates nothing, and comparing a candidate's name reads only the
/// row the decision reads anyway.
#[derive(Debug)]
pub(crate) enum Name {
    Inline { len: u8, bytes: [u8; INLINE_NAME] },
    Boxed(Box<str>),
}

impl Name {
    /// `name`, copied.
    pub(crate) fn new(name: &str) -> Name {
        match u8::try_from(name.len()) {
            Ok(len) if name.len() <= INLINE_NAME => {
                let mut bytes = [0; INLINE_NAME];
                bytes[..name.len()].copy_from_slice(name.as_bytes());
                Name::Inline { len, bytes }
            }
            _ => Name::Boxed(Box::from(name)),
        }
    }

    /// `name`, keeping its block when it is too long to go inline.
    pub(crate) fn from_string(name: String) -> Name {
        if name.len() <= INLINE_NAME {
            Name::new(&name)
        } else {
            Name::Boxed(name.into_boxed_str())
        }
    }

    /// The name's bytes.
    #[inline]
    pub(crate) fn as_bytes(&self) -> &[u8] {
        match self {
            Name::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Name::Boxed(name) => name.as_bytes(),
        }
    }

    /// The name.
    pub(crate) fn as_str(&self) -> &str {
        match self {
            Name::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("made from a whole `str`")
            }
            Name::Boxed(name) => name,
        }
    }
}

/// A table's index from app name to row: open addressing over `u64`
/// entries, each a row number beside 32 bits of the name's hash, at
/// most half full. Names are not stored here but read from the table, so
/// an entry is 8 bytes; the hash bits keep a probe from reading a name
/// that cannot match. It grows only when the table opens a segment.
#[derive(Debug, Default)]
pub(crate) struct NameIndex {
    hasher: RandomState,
    /// `0` empty, else `hash << 32 | (row + 1)`.
    entries: Vec<u64>,
}

impl NameIndex {
    /// The name's 32 hash bits: a probe's start and each entry's check.
    #[inline]
    pub(crate) fn hash(&self, name: &str) -> u32 {
        self.hasher.hash_one(name) as u32
    }

    /// The row of `name` (whose [`NameIndex::hash`] is `hash`), reading
    /// each candidate row's name (its bytes) with `name_of`.
    #[inline]
    pub(crate) fn find<'n>(
        &self,
        name: &str,
        hash: u32,
        name_of: impl Fn(usize) -> &'n [u8],
    ) -> Option<usize> {
        if self.entries.is_empty() {
            return None;
        }
        let mask = self.entries.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let entry = self.entries[at];
            if entry == 0 {
                return None;
            }
            let row = (entry as u32 - 1) as usize;
            if (entry >> 32) as u32 == hash && name_of(row) == name.as_bytes() {
                return Some(row);
            }
            at = (at + 1) & mask;
        }
    }

    /// Adds `row` under `hash`; the index has room
    /// ([`NameIndex::fit`] was called for the table's rows).
    #[inline]
    pub(crate) fn insert(&mut self, hash: u32, row: usize) {
        debug_assert!(row < u32::MAX as usize, "a table of 2^32 apps");
        place(&mut self.entries, u64::from(hash) << 32 | (row as u64 + 1));
    }

    /// Grows the index, when it must, to stay at most half full with
    /// `rows` rows.
    pub(crate) fn fit(&mut self, rows: usize) {
        let want = (2 * rows).next_power_of_two();
        if want > self.entries.len() {
            let mut entries = vec![0; want];
            for &entry in self.entries.iter().filter(|&&e| e != 0) {
                place(&mut entries, entry);
            }
            self.entries = entries;
        }
    }

    /// Rows indexed.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.iter().filter(|&&e| e != 0).count()
    }
}

/// Puts `entry` in the first empty slot from its hash on.
fn place(entries: &mut [u64], entry: u64) {
    let mask = entries.len() - 1;
    let mut at = (entry >> 32) as usize & mask;
    while entries[at] != 0 {
        at = (at + 1) & mask;
    }
    entries[at] = entry;
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitw_core::IdleHistory;
    use sitw_stats::{BinTotals, PercentileCursor, RangeHistogram, Recorded};

    #[test]
    fn a_column_opens_segments_and_never_moves_a_row() {
        let mut c = Column::new(3);
        let mut opened = 0;
        for i in 0..(2 * SEGMENT_ROWS + 1) {
            opened += c.push_row(&[i, i + 1, i + 2]) as usize;
        }
        assert_eq!((opened, c.capacity()), (3, 3 * SEGMENT_ROWS));
        let first = c.row(0).as_ptr();
        for i in 0..SEGMENT_ROWS {
            c.push_row(&[7; 3]);
            assert_eq!(c.row(i), &[i, i + 1, i + 2]);
        }
        assert_eq!(c.row(0).as_ptr(), first, "rows stay where they were put");
        assert_eq!(c.row(3 * SEGMENT_ROWS), &[7, 7, 7]);
    }

    /// Rows' rings as a table keeps them: each in its row, a moved one
    /// recorded in its owner's.
    struct Table {
        rings: Rings,
        rows: Vec<Ring>,
    }

    impl Table {
        fn push(&mut self, row: usize, it: u64, cap: usize) {
            let mut history = self.rings.history(&mut self.rows[row], row);
            history.push(it, cap);
            if let Some((owner, spot)) = history.moved() {
                self.rows[owner].moved_to(spot);
            }
        }

        fn values(&self, row: usize) -> Vec<f64> {
            self.rings.view(&self.rows[row], row).values().collect()
        }
    }

    /// `ms` as history values.
    fn minutes(ms: &[u64]) -> Vec<f64> {
        ms.iter().map(|&it| idle_minutes(it)).collect()
    }

    /// The bits of `values`: equal bits are the same values, NaN and
    /// signed zeros included.
    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn rings_hold_what_a_capped_deque_holds() {
        for cap in [0usize, 1, 3, 4, 6, 8, 64] {
            let mut t = Table {
                rings: Rings::new(cap),
                rows: vec![Ring::default(); 5],
            };
            let mut deques = vec![VecDeque::new(); 5];
            for step in 0..400u64 {
                // Rows fill at different rates, so rings pass each other
                // between classes; now and then a gap no `u32` of
                // milliseconds holds, or the one the escape code takes.
                let row = [0, 0, 1, 2, 0, 3, 1, 4, 0][step as usize % 9];
                let it = match step % 23 {
                    5 => (1 << 32) + step * 977,
                    11 => u64::from(u32::MAX),
                    _ => step * 7_919,
                };
                t.push(row, it, cap);
                deques[row].push(it, cap);
                if step % 37 == 0 {
                    let values = t.rings.history(&mut t.rows[row], row).values().to_vec();
                    assert_eq!(bits(&values), bits(deques[row].values()));
                }
                for (row, deque) in deques.iter().enumerate() {
                    let want: Vec<f64> = deque.iter().copied().collect();
                    assert_eq!(bits(&t.values(row)), bits(&want), "cap {cap} step {step}");
                    // A row keeps escaped values only while its ring
                    // holds an escaped code.
                    let escaped = want.iter().filter(|&&v| history_code(v) == ESCAPED);
                    let kept = t.rings.escaped.get(&(row as u32)).map_or(0, VecDeque::len);
                    assert_eq!(kept, escaped.count());
                }
                // Every class is dense: it holds the rings of its size.
                let classes = &t.rings.classes;
                for (class, c) in classes.classes.iter().enumerate() {
                    let here = (t.rows.iter())
                        .filter(|r| r.len > 0 && classes.class_of(r.len) == class)
                        .count();
                    assert_eq!((c.values.len(), c.owners.len()), (here, here));
                }
            }
        }
    }

    #[test]
    fn a_ring_that_moves_up_leaves_no_hole() {
        let mut rings = Rings::new(64);
        let rows = vec![
            rings.restore(0, &[1, 2], &mut Vec::new()),
            rings.restore(1, &[7], &mut Vec::new()),
            rings.restore(2, &[3, 4, 5, 6], &mut Vec::new()),
        ];
        let mut t = Table { rings, rows };
        // Row 0 fills its 4 values and moves up; row 2, the class's
        // last, takes its spot.
        for it in [25, 35, 45] {
            t.push(0, it, 64);
        }
        let classes = &t.rings.classes.classes;
        assert_eq!(classes[0].values.len(), 2);
        assert_eq!(t.values(0), minutes(&[1, 2, 25, 35, 45]));
        assert_eq!(t.values(1), minutes(&[7]));
        assert_eq!(t.values(2), minutes(&[3, 4, 5, 6]));
        // A class that empties frees its segment.
        t.push(2, 8, 64);
        t.push(1, 8, 64);
        let classes = &t.rings.classes.classes;
        assert_eq!(classes[0].values.len(), 1);
        assert_eq!(classes[1].values.len(), 2);
    }

    #[test]
    fn a_restored_ring_keeps_values_no_code_holds() {
        // What a snapshot may bring: a fraction of a millisecond, values
        // past the codes, a negative zero, NaN and the most negative
        // `f64`, among whole milliseconds (0.123 min is 7 380 ms to the
        // bit).
        let values = [
            10.0,
            0.123,
            0.1234567,
            1e300,
            -0.0,
            f64::NAN,
            idle_minutes(u64::from(u32::MAX) - 1),
            -f64::MAX,
            idle_minutes(u64::from(u32::MAX)),
        ];
        let codes: Vec<u32> = values.iter().map(|&v| history_code(v)).collect();
        assert_eq!((codes[0], codes[1]), (600_000, 7_380));
        assert_eq!(codes[6], u32::MAX - 1);
        let escaped: Vec<f64> = (values.iter().zip(&codes))
            .filter(|&(_, &code)| code == ESCAPED)
            .map(|(&v, _)| v)
            .collect();
        assert_eq!(escaped.len(), 6);
        let mut rings = Rings::new(9);
        let mut taken = escaped.clone();
        let rows = vec![rings.restore(0, &codes, &mut taken)];
        assert!(taken.is_empty(), "the ring took the escaped values");
        let mut t = Table { rings, rows };
        assert_eq!(bits(&t.values(0)), bits(&values));
        // Each escaped value leaves with its code.
        let mut deque: VecDeque<f64> = values.iter().copied().collect();
        for it in [60_000, 1 << 40, 120, 180, 240, 300, 360, 420, 480, 540, 600] {
            t.push(0, it, 9);
            deque.push(it, 9);
            assert_eq!(bits(&t.values(0)), bits(deque.make_contiguous()));
        }
        assert!(t.rings.escaped.is_empty());
    }

    /// One row's bins beside its dense twin: a [`RangeHistogram`] with
    /// the cursors an owner of dense bins keeps.
    struct Twin {
        slot: BinSlot,
        totals: BinTotals,
        cursors: [PercentileCursor; 2],
        dense: RangeHistogram,
        dense_cursors: [PercentileCursor; 2],
    }

    /// Bins to restore a row from: none, a few, some at `u32::MAX`, or
    /// more than the largest sparse class holds.
    fn restored_bins(num_bins: usize, kind: u64, seed: u64) -> Vec<u32> {
        let mut bins = vec![0u32; num_bins];
        let at = |k: u64| (crate::mix64(seed ^ k) % num_bins as u64) as usize;
        match kind % 4 {
            0 => {}
            1 => (0..3).for_each(|k| bins[at(k)] = 1 + k as u32),
            2 => (0..5).for_each(|k| bins[at(k)] = u32::MAX - (k % 2) as u32),
            _ => (0..90).for_each(|k| bins[at(k)] += 1),
        }
        bins
    }

    proptest::proptest! {
        /// A table's bins equal a dense [`RangeHistogram`] per row, record
        /// for record: the record's outcome, the totals (the bin-count CV
        /// over the geometry's bin count, to the bit), both cursors
        /// against the dense owner's and against the walk, and every
        /// row's bins. Geometries with every sparse class, with fewer and
        /// with none; rows restored empty, with a few bins, with bins at
        /// `u32::MAX` (a record into one is refused and changes nothing)
        /// and past the largest class; records that spread a row over
        /// more bins than the largest class holds, so rows cross every
        /// class boundary and the dense promotion while other rows take
        /// the spots they leave; percentiles `[5, 99]`, odd ones and NaN;
        /// and now and then every row rebuilt from its dense list, as a
        /// restore does, whose sought cursors must be the carried ones.
        #[test]
        fn sparse_bins_equal_a_dense_histogram(
            shape in 0u64..u64::MAX,
            ops in proptest::collection::vec(0u64..u64::MAX, 1..600),
        ) {
            let mut bits = shape;
            let mut take = |n: u64| {
                let v = bits % n;
                bits /= n;
                v
            };
            let num_bins = [240usize, 240, 60, 12, 8, 1_440, 100][take(7) as usize];
            let width = [1u64, 1, 5][take(3) as usize];
            let ps = [
                [5.0, 99.0],
                [0.0, 100.0],
                [99.0, 5.0],
                [37.3, f64::NAN],
                [-3.0, 250.0],
                [1.0, 95.0],
            ][take(6) as usize];
            let fractions = ps.map(PercentileCursor::fraction);
            let rows = 1 + take(6) as usize;
            let mut table = BinTable::new(num_bins);
            let mut twins: Vec<Twin> = (0..rows)
                .map(|row| {
                    let bins = restored_bins(num_bins, take(4), shape ^ row as u64);
                    let dense = RangeHistogram::from_parts(width, bins.clone(), 0);
                    let dense_cursors = PercentileCursor::seek_pair(
                        dense.bins(), dense.in_bounds_count(), fractions);
                    let (lists, (totals, cursors)) = HybridLists::new(bins, Vec::new(), |b| {
                        let totals = BinTotals::of(&b, 0);
                        (totals, PercentileCursor::seek_pair(&b, totals.in_bounds_count(), fractions))
                    });
                    let slot = table.restore(row, &lists);
                    Twin { slot, totals, cursors, dense, dense_cursors }
                })
                .collect();
            let range = num_bins as u64 * width;
            for (step, mut bits) in ops.into_iter().enumerate() {
                let mut take = |n: u64| {
                    let v = bits % n;
                    bits /= n;
                    v
                };
                if take(64) == 0 {
                    // Every row rebuilt from its dense list.
                    let mut rebuilt = BinTable::new(num_bins);
                    for (row, t) in twins.iter_mut().enumerate() {
                        let bins = table.view(&t.slot).to_dense();
                        let (lists, (totals, cursors)) = HybridLists::new(bins, Vec::new(), |b| {
                            let totals = BinTotals::of(&b, t.totals.oob_count());
                            (totals, PercentileCursor::seek_pair(&b, totals.in_bounds_count(), fractions))
                        });
                        proptest::prop_assert_eq!(totals, t.totals);
                        proptest::prop_assert_eq!(cursors, t.cursors);
                        t.slot = rebuilt.restore(row, &lists);
                    }
                    table = rebuilt;
                }
                let row = take(rows as u64) as usize;
                // Mostly a spread of bins that grows with the row, so it
                // passes every class; now and then one bin again, a full
                // one, or out of bounds.
                let value = match take(8) {
                    0 => range + take(3 * width),
                    1 => twins[row].dense.bins().iter().position(|&c| c == u32::MAX)
                        .map_or(take(range), |bin| bin as u64 * width),
                    2 => take(width),
                    _ => take(range),
                };
                let t = &mut twins[row];
                let mut bins = table.bins(&mut t.slot, row);
                let recorded = t.totals.record(&mut bins, width, value);
                if let Recorded::InBounds { bin } = recorded {
                    let in_bounds = t.totals.in_bounds_count();
                    for (c, &f) in t.cursors.iter_mut().zip(&fractions) {
                        c.on_record(&bins, in_bounds, f, bin);
                    }
                }
                let moved = bins.moved();
                let want = t.dense.record(value);
                if let Recorded::InBounds { bin } = want {
                    let in_bounds = t.dense.in_bounds_count();
                    for (c, &f) in t.dense_cursors.iter_mut().zip(&fractions) {
                        c.on_record(t.dense.bins(), in_bounds, f, bin);
                    }
                }
                if let Some((owner, spot)) = moved {
                    twins[owner].slot.moved_to(spot);
                }
                let t = &twins[row];
                proptest::prop_assert!(recorded == want, "step {step}: {recorded:?} against {want:?}");
                let (n, d) = (t.totals.in_bounds_count(), t.dense.in_bounds_count());
                proptest::prop_assert_eq!((n, t.totals.oob_count()), (d, t.dense.oob_count()));
                proptest::prop_assert_eq!(
                    t.totals.bin_count_cv(num_bins).to_bits(),
                    t.dense.bin_count_cv().to_bits()
                );
                proptest::prop_assert!(t.cursors == t.dense_cursors, "step {step}");
                for (c, p) in t.cursors.iter().zip(ps) {
                    proptest::prop_assert_eq!(c.bin(n), t.dense.percentile_bin(p));
                }
                for t in &twins {
                    proptest::prop_assert_eq!(&table.view(&t.slot).to_dense()[..], t.dense.bins());
                }
                // Every sparse class holds the rows of its size.
                for (class, c) in table.sparse.classes.iter().enumerate() {
                    let here = (twins.iter())
                        .filter(|t| !matches!(t.slot.len, 0 | DENSE))
                        .filter(|t| table.sparse.class_of(u32::from(t.slot.len)) == class)
                        .count();
                    proptest::prop_assert_eq!((c.values.len(), c.owners.len()), (here, here));
                }
            }
        }
    }

    #[test]
    fn a_row_crosses_every_class_and_goes_dense() {
        // Two rows spread over new bins in turn: each passes the classes
        // of 4, 8, 16, 32 and 64 entries, the other's moves fill the
        // spots it leaves, and the 65th bin moves it to the dense form.
        let mut table = BinTable::new(240);
        let mut slots = [BinSlot::default(); 2];
        let mut seen = [vec![], vec![]];
        for k in 0..70usize {
            for row in 0..2 {
                let bin = (k * 7 + row * 3) % 240;
                let mut bins = table.bins(&mut slots[row], row);
                assert_eq!(bins.increment(bin), Some(0));
                if let Some((owner, spot)) = bins.moved() {
                    slots[owner].moved_to(spot);
                }
                let len = slots[row].len;
                let class = match len {
                    DENSE => None,
                    n => Some(table.sparse.class_of(u32::from(n))),
                };
                if seen[row].last() != Some(&class) {
                    seen[row].push(class);
                }
                for (r, slot) in slots.iter().enumerate() {
                    let nonempty: Vec<usize> =
                        table.view(slot).into_nonempty().map(|(b, _)| b).collect();
                    let mut want: Vec<usize> = (0..k + 1 - usize::from(r > row))
                        .map(|j| (j * 7 + r * 3) % 240)
                        .collect();
                    want.sort_unstable();
                    assert_eq!(nonempty, want, "row {r} after bin {k} of row {row}");
                }
            }
        }
        for classes in seen {
            assert_eq!(classes, [Some(0), Some(1), Some(2), Some(3), Some(4), None]);
        }
        // The sparse classes emptied; their last segments are freed.
        assert!(table
            .sparse
            .classes
            .iter()
            .all(|c| c.values.capacity() == 0));
        assert_eq!(table.dense.len(), 2);
    }

    #[test]
    fn a_geometry_past_two_to_the_53_walks_dense() {
        // More bins than a `u16` names: no sparse class, every app dense
        // from its first record. Full bins put the in-bounds total past
        // 2^53, where the cursors take the `f64` walk, through the
        // table's accessor as over the plain list.
        let mut bins = vec![u32::MAX; (1 << 21) + 2];
        bins.push(2);
        let num_bins = bins.len();
        let fractions = [0.99, 0.05].map(PercentileCursor::fraction);
        let dense = RangeHistogram::from_parts(1, bins.clone(), 0);
        let in_bounds = dense.in_bounds_count();
        assert!(in_bounds > 1 << 53);
        let want = PercentileCursor::seek_pair(dense.bins(), in_bounds, fractions);
        let (lists, sought) = HybridLists::new(bins, Vec::new(), |b| {
            assert!(matches!(b, BinsRef::Dense(_)));
            PercentileCursor::seek_pair(&b, in_bounds, fractions)
        });
        assert_eq!(sought, want);
        let mut table = BinTable::new(num_bins);
        let mut slot = table.restore(0, &lists);
        assert_eq!(slot.len, DENSE);
        let mut totals = BinTotals::of(&table.view(&slot), 0);
        let bins = table.bins(&mut slot, 0);
        assert_eq!(
            PercentileCursor::seek_pair(&bins, in_bounds, fractions),
            want
        );
        let mut bins = table.bins(&mut slot, 0);
        assert_eq!(totals.record(&mut bins, 1, 7), Recorded::Saturated);
        assert_eq!(totals.in_bounds_count(), in_bounds);
        // A fresh row of this table goes dense at its first record.
        let mut fresh = BinSlot::default();
        let mut bins = table.bins(&mut fresh, 1);
        assert_eq!(
            BinTotals::default().record(&mut bins, 1, 3),
            Recorded::InBounds { bin: 3 }
        );
        assert_eq!(fresh.len, DENSE);
    }

    #[test]
    fn sparse_classes_stop_where_they_stop_paying() {
        assert_eq!(sparse_cap(240), 64);
        assert_eq!(sparse_cap(1_440), 64);
        assert_eq!(sparse_cap(60), 16);
        assert_eq!(sparse_cap(12), 4);
        assert_eq!(sparse_cap(8), 0);
        assert_eq!(sparse_cap(1 << 16), 64);
        assert_eq!(sparse_cap((1 << 16) + 1), 0);
        assert_eq!(std::mem::size_of::<BinEntry>(), 8);
        assert_eq!(std::mem::size_of::<BinSlot>(), 8);
    }

    #[test]
    fn a_column_pops_and_frees_an_empty_segment() {
        let mut c = Column::new(2);
        for i in 0..=SEGMENT_ROWS {
            c.push_row(&[i, i]);
        }
        assert_eq!(c.capacity(), 2 * SEGMENT_ROWS);
        c.pop();
        assert_eq!((c.len(), c.capacity()), (SEGMENT_ROWS, SEGMENT_ROWS));
        let (a, b) = c.rows_mut(1, SEGMENT_ROWS - 1);
        a.copy_from_slice(b);
        assert_eq!(c.row(1), [SEGMENT_ROWS - 1; 2]);
    }

    #[test]
    fn a_name_keeps_its_bytes_inline_or_boxed() {
        for name in [
            "",
            "app-000001",
            "a-name-of-twenty-two-b",
            "a name one byte longer.",
            "ünïcödé-ñame",
        ] {
            for made in [Name::new(name), Name::from_string(name.into())] {
                assert_eq!(made.as_str(), name);
                assert_eq!(
                    matches!(made, Name::Inline { .. }),
                    name.len() <= INLINE_NAME
                );
            }
        }
        assert_eq!(std::mem::size_of::<Name>(), 24);
    }

    #[test]
    fn the_index_finds_every_row_and_nothing_else() {
        let names: Vec<String> = (0..1_000).map(|i| format!("app-{i}")).collect();
        let mut index = NameIndex::default();
        for (row, name) in names.iter().enumerate() {
            index.fit(row + 1);
            let hash = index.hash(name);
            assert_eq!(index.find(name, hash, |r| names[r].as_bytes()), None);
            index.insert(hash, row);
        }
        for (row, name) in names.iter().enumerate() {
            assert_eq!(
                index.find(name, index.hash(name), |r| names[r].as_bytes()),
                Some(row)
            );
        }
        assert_eq!(
            index.find("other", index.hash("other"), |r| names[r].as_bytes()),
            None
        );
        assert_eq!(index.len(), 1_000);
    }
}

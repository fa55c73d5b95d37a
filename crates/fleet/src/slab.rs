//! The storage of a tenant's app table: columns that grow a segment at
//! a time, the rings an app's idle-time history lives in, and the index
//! from app names to rows.
//!
//! Every column of a table holds one entry of `stride` values per row,
//! in segments of [`SEGMENT_ROWS`] rows. A full column opens one more
//! segment; it never reallocates, so a first sight past a full table
//! copies nothing, and growing a table never holds two copies of a
//! column. Rows are never removed: an app keeps its row for as long as
//! the table lives.
//!
//! A history is a ring inside one of a few fixed-stride columns, one per
//! size class (4, 8, 16, ... values, up to the cap): an app's ring lives
//! in the smallest class that holds its values, and moves up one class
//! when it fills below the cap — the sizes a growing `VecDeque` takes,
//! without a heap block per app. Each class stays dense: the spot a ring
//! moves out of is filled with the class's last ring, and the class's
//! last segment is freed when it empties.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

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

    /// Appends a row of `stride` copies of `value`.
    pub(crate) fn push_filled(&mut self, value: T) -> bool {
        let stride = self.stride;
        self.push_with(|segment| segment.resize(segment.len() + stride, value))
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

/// One size class of [`Rings`]: a column of rings of one stride, kept
/// dense — a ring that moves out is replaced by the class's last one —
/// beside the row each spot belongs to.
#[derive(Debug)]
struct RingClass {
    values: Column<f64>,
    owners: Column<u32>,
}

/// The history rings of one table, for histories capped at `cap`
/// values: one size class per stride `4, 8, 16, ...` below the cap, and
/// one of the cap itself. Each row keeps its [`Ring`].
#[derive(Debug)]
pub(crate) struct Rings {
    cap: usize,
    classes: Vec<RingClass>,
}

impl Rings {
    /// Rings for histories of at most `cap` values (none for 0).
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
            cap,
            classes: strides
                .into_iter()
                .map(|stride| RingClass {
                    values: Column::new(stride),
                    owners: Column::new(1),
                })
                .collect(),
        }
    }

    /// The most values a history holds.
    pub(crate) fn cap(&self) -> usize {
        self.cap
    }

    /// The class a ring of `len > 0` values lives in: the smallest that
    /// holds them.
    #[inline]
    fn class_of(&self, len: u32) -> usize {
        let ceil_log2 = u32::BITS - (len.max(4) - 1).leading_zeros();
        (ceil_log2 as usize - 2).min(self.classes.len() - 1)
    }

    /// A spot of class `class` for row `row`, at the class's end,
    /// holding `values` and zeros after them.
    fn take(&mut self, class: usize, row: usize, values: &[f64]) -> u32 {
        let c = &mut self.classes[class];
        let stride = c.values.row_len();
        c.values.push_with(|segment| {
            segment.extend_from_slice(values);
            segment.resize(segment.len() + stride - values.len(), 0.0);
        });
        c.owners.push(row as u32);
        (c.values.len() - 1) as u32
    }

    /// Gives `spot` of class `class` up: the class's last ring moves
    /// into it, and a segment left empty is freed. Returns the row whose
    /// ring moved, and where to, for its owner to record.
    fn give(&mut self, class: usize, spot: u32) -> Option<(usize, u32)> {
        let c = &mut self.classes[class];
        let last = c.values.len() - 1;
        let moved = (spot as usize != last).then(|| {
            let (to, from) = c.values.rows_mut(spot as usize, last);
            to.copy_from_slice(from);
            let owner = *c.owners.get(last);
            *c.owners.get_mut(spot as usize) = owner;
            (owner as usize, spot)
        });
        c.values.pop();
        c.owners.pop();
        moved
    }

    /// The ring of row `row`, holding `values`, oldest first (at most
    /// `cap` of them).
    pub(crate) fn restore(&mut self, row: usize, values: &[f64]) -> Ring {
        assert!(values.len() <= self.cap, "a history past its cap");
        let len = values.len() as u32;
        if len == 0 {
            return Ring::default();
        }
        let spot = self.take(self.class_of(len), row, values);
        Ring { spot, head: 0, len }
    }

    /// `ring`'s values, oldest first, as the two runs of its ring.
    pub(crate) fn slices(&self, ring: &Ring) -> [&[f64]; 2] {
        if ring.len == 0 {
            return [&[], &[]];
        }
        let values = self.classes[self.class_of(ring.len)]
            .values
            .row(ring.spot as usize);
        let (newer, older) = values[..ring.len as usize].split_at(ring.head as usize);
        [older, newer]
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
    fn push(&mut self, value: f64, cap: usize) {
        debug_assert_eq!(cap, self.rings.cap, "one cap per table");
        if cap == 0 {
            return;
        }
        let Ring { spot, head, len } = *self.ring;
        if len == 0 {
            let spot = self.rings.take(0, self.row, &[value]);
            *self.ring = Ring {
                spot,
                head: 0,
                len: 1,
            };
            return;
        }
        let class = self.rings.class_of(len);
        let values = &mut self.rings.classes[class].values;
        let stride = values.row_len() as u32;
        if len < stride {
            // Room at the end: below its stride a ring never wrapped.
            values.row_mut(spot as usize)[len as usize] = value;
            self.ring.len = len + 1;
        } else if len as usize == cap {
            // Full at the cap: the newest takes the oldest one's place.
            values.row_mut(spot as usize)[head as usize] = value;
            self.ring.head = (head + 1) % stride;
        } else {
            // Full below the cap: one class up, oldest first.
            let (lower, upper) = self.rings.classes.split_at_mut(class + 1);
            let from = lower[class].values.row(spot as usize);
            let (to, owners) = (&mut upper[0].values, &mut upper[0].owners);
            let fill = to.row_len() - from.len() - 1;
            to.push_with(|segment| {
                segment.extend_from_slice(from);
                segment.push(value);
                segment.resize(segment.len() + fill, 0.0);
            });
            owners.push(self.row as u32);
            *self.ring = Ring {
                spot: (to.len() - 1) as u32,
                head: 0,
                len: len + 1,
            };
            self.moved = self.rings.give(class, spot);
        }
    }

    fn make_contiguous(&mut self) -> &[f64] {
        let Ring { spot, head, len } = *self.ring;
        if len == 0 {
            return &[];
        }
        self.ring.head = 0;
        let class = self.rings.class_of(len);
        let values = &mut self.rings.classes[class].values.row_mut(spot as usize)[..len as usize];
        values.rotate_left(head as usize);
        values
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
    use std::collections::VecDeque;

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
            c.push_filled(7);
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
        fn push(&mut self, row: usize, value: f64, cap: usize) {
            let mut history = self.rings.history(&mut self.rows[row], row);
            history.push(value, cap);
            if let Some((owner, spot)) = history.moved() {
                self.rows[owner].moved_to(spot);
            }
        }

        fn values(&self, row: usize) -> Vec<f64> {
            self.rings.slices(&self.rows[row]).concat()
        }
    }

    #[test]
    fn rings_hold_what_a_capped_deque_holds() {
        for cap in [0usize, 1, 3, 4, 6, 8, 64] {
            let mut t = Table {
                rings: Rings::new(cap),
                rows: vec![Ring::default(); 5],
            };
            let mut deques = vec![VecDeque::new(); 5];
            for step in 0..400u32 {
                // Rows fill at different rates, so rings pass each other
                // between classes.
                let row = [0, 0, 1, 2, 0, 3, 1, 4, 0][step as usize % 9];
                let value = f64::from(step);
                t.push(row, value, cap);
                deques[row].push(value, cap);
                if step % 37 == 0 {
                    let contiguous = t
                        .rings
                        .history(&mut t.rows[row], row)
                        .make_contiguous()
                        .to_vec();
                    assert_eq!(contiguous, deques[row].make_contiguous());
                }
                for (row, deque) in deques.iter().enumerate() {
                    let want: Vec<f64> = deque.iter().copied().collect();
                    assert_eq!(t.values(row), want, "cap {cap} step {step}");
                }
                // Every class is dense: it holds the rings of its size.
                for (class, c) in t.rings.classes.iter().enumerate() {
                    let here = (t.rows.iter())
                        .filter(|r| r.len > 0 && t.rings.class_of(r.len) == class)
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
            rings.restore(0, &[1.0, 2.0]),
            rings.restore(1, &[7.0]),
            rings.restore(2, &[3.0, 4.0, 5.0, 6.0]),
        ];
        let mut t = Table { rings, rows };
        // Row 0 fills its 4 values and moves up; row 2, the class's
        // last, takes its spot.
        for v in [2.5, 3.5, 4.5] {
            t.push(0, v, 64);
        }
        assert_eq!(t.rings.classes[0].values.len(), 2);
        assert_eq!(t.values(0), [1.0, 2.0, 2.5, 3.5, 4.5]);
        assert_eq!(t.values(1), [7.0]);
        assert_eq!(t.values(2), [3.0, 4.0, 5.0, 6.0]);
        // A class that empties frees its segment.
        t.push(2, 8.0, 64);
        t.push(1, 8.0, 64);
        assert_eq!(t.rings.classes[0].values.len(), 1);
        assert_eq!(t.rings.classes[1].values.len(), 2);
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

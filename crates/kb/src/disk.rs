//! The `.mkb` on-disk columnar container: a compiled [`KbPair`] that opens
//! in microseconds via `mmap` instead of re-parsing N-Triples.
//!
//! # Layout (format version 3)
//!
//! An `.mkb` is one [`minoaner_det::segment`] of kind `KB`: the segment
//! frames it (header, section table, per-section checksums, 8-aligned
//! payloads, native endianness) and holds the dirty-pair bit in its flags
//! (bit 0). The thirteen sections, each a column or two laid out so that
//! `u32` columns can be viewed in place from the mapping:
//!
//! ```text
//!   arenas   1–4   tokens/literals/attrs/uris interner storage, in
//!                  interning order: count u64 · offsets u32[count+1]
//!                  · pad · UTF-8 bytes
//!   CSR      5     literal token sequences (rows = literal count)
//!   columns  6,7   per-entity URI symbols (left, right): count u64
//!                  · u32[count]
//!   pairs    8,9   per-entity attribute–value columns: rows u64
//!                  · offsets u32[rows+1] · pad · attr u32[total]
//!                  · value u32[total] (high bit set ⇒ Ref, clear ⇒ Literal)
//!   CSR     10,11  per-entity sorted token sets
//!   columns 12,13  per-entity token occurrence counts
//! ```
//!
//! Versions 1 and 2 had the same sections under a header of their own
//! (version 1 under byte-serial FNV-1a, neither sealing its table); such a
//! file is refused with [`MkbError::SchemaMismatch`] — recompile it from
//! its documents. There is one reader.
//!
//! Every section is a column [`Interner`], [`Kb`] and the pair's [`Rows`]
//! tables hold in memory — one byte arena or one data column, plus
//! cumulative offsets from 0; a side's pairs are an attribute table and
//! the value words beside it, on disk as in memory. Writing copies those
//! columns; [`MkbFile::to_pair`] validates them where they lie and hands
//! them out as they are: each table of the returned pair is a `Stored`
//! range of the reference-counted mapping, not a copy.
//!
//! [`MkbFile::open`] only validates structure (the segment's header and
//! table, every section's internal offsets and bounds) — the cheap path
//! benchmarked against re-parsing. [`MkbFile::verify`] checks every section checksum, and
//! [`MkbFile::to_pair`] verifies before anything else, so a bit-flipped
//! file fails closed with a typed [`MkbError`] instead of producing a
//! silently wrong KB.

use std::fmt;
use std::fs::File;
use std::ops::{Deref, Range};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use minoaner_det::segment::{self, Kind, Segment, SegmentError};
use minoaner_det::vfs::{self, Vfs};

use crate::interner::{Interner, Symbol};
use crate::model::{AttrId, Side, TokenId, Value};
use crate::rows::Rows;
use crate::store::{Kb, KbPair, UriIndex};

/// Version of the `.mkb` layout this build reads and writes.
pub const MKB_FORMAT_VERSION: u32 = 3;

const FLAG_DIRTY: u32 = 1;
const SECTION_COUNT: usize = 13;

/// Section identifiers, in file order.
mod section {
    pub const TOKENS: u32 = 1;
    pub const LITERALS: u32 = 2;
    pub const ATTRS: u32 = 3;
    pub const URIS: u32 = 4;
    pub const LITERAL_TOKENS: u32 = 5;
    pub const ENT_URI_L: u32 = 6;
    pub const ENT_URI_R: u32 = 7;
    pub const PAIRS_L: u32 = 8;
    pub const PAIRS_R: u32 = 9;
    pub const TOKSET_L: u32 = 10;
    pub const TOKSET_R: u32 = 11;
    pub const TOKOCC_L: u32 = 12;
    pub const TOKOCC_R: u32 = 13;
}

/// A typed `.mkb` failure. Every way a file can be wrong maps to one
/// variant, so corruption tests (and callers) match on the class instead
/// of a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MkbError {
    /// Filesystem error.
    Io { path: String, detail: String },
    /// Structural or checksum failure: truncation, bad magic, misaligned
    /// or out-of-bounds sections, checksum mismatch, out-of-range ids,
    /// tables that disagree with themselves.
    Corrupt { path: String, detail: String },
    /// The file's format version is not the one this build reads.
    SchemaMismatch { found: u32, expected: u32 },
    /// The file was compiled on a machine of the other endianness.
    EndianMismatch { found: u32 },
}

impl fmt::Display for MkbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MkbError::Io { path, detail } => write!(f, "mkb io error at {path}: {detail}"),
            MkbError::Corrupt { path, detail } => write!(f, "corrupt mkb file {path}: {detail}"),
            MkbError::SchemaMismatch { found, expected } => {
                write!(f, "mkb format version {found} (this build reads {expected})")
            }
            MkbError::EndianMismatch { found } => {
                write!(f, "mkb endianness tag {found:#010x} does not match this machine")
            }
        }
    }
}

impl std::error::Error for MkbError {}

fn io_err(path: &Path, e: &std::io::Error) -> MkbError {
    MkbError::Io { path: path.display().to_string(), detail: e.to_string() }
}

fn corrupt(path: &Path, detail: impl Into<String>) -> MkbError {
    MkbError::Corrupt { path: path.display().to_string(), detail: detail.into() }
}

fn segment_err(path: &Path, e: SegmentError) -> MkbError {
    match e {
        SegmentError::Corrupt(detail) => corrupt(path, detail),
        SegmentError::SchemaMismatch { found, expected } => MkbError::SchemaMismatch { found, expected },
        SegmentError::EndianMismatch { found } => MkbError::EndianMismatch { found },
    }
}

// ───────────────────────────── writing ─────────────────────────────

/// Appends native-endian `u32`s, then zero bytes up to the next multiple
/// of 8 — the seam between a section's arrays. Sections start 8-aligned,
/// so offsets in `out` are aligned in the file too.
fn put_u32s(out: &mut Vec<u8>, vs: impl Iterator<Item = u32>) {
    vs.for_each(|v| out.extend_from_slice(&v.to_ne_bytes()));
    pad8(out);
}

fn pad8(out: &mut Vec<u8>) {
    out.resize(out.len().next_multiple_of(8), 0);
}

/// An interner: count, cumulative byte offsets, concatenated UTF-8, in
/// interning order (symbols are positional). These are the interner's own
/// columns, copied; it keeps them under 4 GiB itself.
fn arena_section(out: &mut Vec<u8>, interner: &Interner) {
    out.extend_from_slice(&(interner.len() as u64).to_ne_bytes());
    put_u32s(out, interner.offsets().iter().copied());
    out.extend_from_slice(interner.arena().as_bytes());
    pad8(out);
}

/// Row-major variable-length token data as a CSR section — again the
/// table's own two columns, copied.
fn csr_section(out: &mut Vec<u8>, rows: &Rows<TokenId>) {
    out.extend_from_slice(&(rows.n_rows() as u64).to_ne_bytes());
    put_u32s(out, rows.offsets());
    put_u32s(out, rows.data().map(|t| t.0));
}

/// A plain u32 column.
fn u32_column(out: &mut Vec<u8>, vals: impl ExactSizeIterator<Item = u32>) {
    out.extend_from_slice(&(vals.len() as u64).to_ne_bytes());
    put_u32s(out, vals);
}

/// One side's attribute–value pairs: the attribute rows' offsets and
/// column, then the value words beside them — the three columns the KB
/// holds, copied.
fn pairs_section(out: &mut Vec<u8>, attrs: &Rows<AttrId>, values: &[u32]) {
    out.extend_from_slice(&(attrs.n_rows() as u64).to_ne_bytes());
    put_u32s(out, attrs.offsets());
    put_u32s(out, attrs.data().map(|a| a.0));
    put_u32s(out, values.iter().copied());
}

/// An upper bound on the bytes of `pair`'s thirteen sections: their
/// words, and a count word and padding per array.
fn payload_bound(pair: &KbPair) -> usize {
    let arena = |i: &Interner| 4 * i.offsets().len() + i.arena().len() + 24;
    let csr = |rows: &Rows<TokenId>| 4 * (rows.n_rows() + rows.n_items()) + 32;
    let side = |kb: &Kb| {
        let ((uris, attrs, _), (token_sets, occurrences)) = (kb.entity_columns(), kb.token_columns());
        4 * (uris.len() + attrs.n_rows() + 2 * attrs.n_items() + occurrences.len()) + 64 + csr(token_sets)
    };
    let arenas: usize = [pair.tokens(), pair.literals(), pair.attrs(), pair.uris()].into_iter().map(arena).sum();
    arenas + csr(pair.literal_tokens()) + side(pair.kb(Side::Left)) + side(pair.kb(Side::Right))
}

/// Compiles a [`KbPair`] into an `.mkb` container at `path`, atomically
/// ([`vfs::commit_file`]: a fsynced `.tmp-` sibling renamed over the
/// target, then the directory fsynced — a checkpoint barrier's commit
/// too). Each section is encoded in place into the one buffer that is the
/// file. Returns the file's total size in bytes.
pub fn write_mkb(pair: &KbPair, path: &Path) -> Result<u64, MkbError> {
    write_mkb_with(pair, path, &*vfs::default_vfs())
}

/// [`write_mkb`] against an explicit [`Vfs`] — the chaos harness's
/// injection seam for the compile path. A failed commit removes the
/// `.tmp-` sibling (best-effort) so a full disk never leaks scratch, and
/// a pre-existing `.mkb` at `path` is left untouched until the rename.
pub fn write_mkb_with(pair: &KbPair, path: &Path, vfs: &dyn Vfs) -> Result<u64, MkbError> {
    let (left, right) = (pair.kb(Side::Left), pair.kb(Side::Right));
    let ((uris_l, attrs_l, values_l), (tokset_l, tokocc_l)) = (left.entity_columns(), left.token_columns());
    let ((uris_r, attrs_r, values_r), (tokset_r, tokocc_r)) = (right.entity_columns(), right.token_columns());

    let flags = if pair.is_dirty() { FLAG_DIRTY } else { 0 };
    let mut w = segment::Writer::new(Kind::MKB, MKB_FORMAT_VERSION, flags, SECTION_COUNT);
    w.reserve(payload_bound(pair));
    w.section(section::TOKENS, |out| arena_section(out, pair.tokens()));
    w.section(section::LITERALS, |out| arena_section(out, pair.literals()));
    w.section(section::ATTRS, |out| arena_section(out, pair.attrs()));
    w.section(section::URIS, |out| arena_section(out, pair.uris()));
    w.section(section::LITERAL_TOKENS, |out| csr_section(out, pair.literal_tokens()));
    w.section(section::ENT_URI_L, |out| u32_column(out, uris_l.iter().map(|uri| uri.0)));
    w.section(section::ENT_URI_R, |out| u32_column(out, uris_r.iter().map(|uri| uri.0)));
    w.section(section::PAIRS_L, |out| pairs_section(out, attrs_l, values_l));
    w.section(section::PAIRS_R, |out| pairs_section(out, attrs_r, values_r));
    w.section(section::TOKSET_L, |out| csr_section(out, tokset_l));
    w.section(section::TOKSET_R, |out| csr_section(out, tokset_r));
    w.section(section::TOKOCC_L, |out| u32_column(out, tokocc_l.iter().copied()));
    w.section(section::TOKOCC_R, |out| u32_column(out, tokocc_r.iter().copied()));
    let out = w.finish().map_err(|e| segment_err(path, e))?;

    vfs::commit_file(vfs, path, &out).map_err(|(at, e)| io_err(&at, &e))?;
    Ok(out.len() as u64)
}

// ───────────────────────────── mapping ─────────────────────────────

/// Owned read-only byte view of a file. On Unix this is a real
/// `mmap(PROT_READ, MAP_SHARED)` mapping — page-in is lazy and the pages
/// are shareable across processes; elsewhere (and under Miri, which cannot
/// model foreign mmap memory) it falls back to an aligned heap read.
///
/// An [`MkbFile`], the pair [`MkbFile::to_pair`] returns and every column
/// of it share one mapping through an `Arc`: it is unmapped when the last
/// of them goes.
#[derive(Debug)]
pub(crate) struct Mapping {
    #[cfg(all(unix, not(miri)))]
    ptr: *mut std::ffi::c_void,
    #[cfg(all(unix, not(miri)))]
    len: usize,
    #[cfg(any(not(unix), miri))]
    buf: Vec<u64>,
    #[cfg(any(not(unix), miri))]
    len: usize,
}

// SAFETY: `ptr` is the only non-`Send` field. It addresses a
// `PROT_READ` mapping that this struct alone owns and that only `Drop`
// unmaps (`len` is a plain `usize`; the non-mmap build holds a
// `Vec<u64>`, `Send` already), so moving the owner to another thread
// moves nothing that is tied to the creating thread.
unsafe impl Send for Mapping {}
// SAFETY: the mapping is read-only bytes — this process cannot write
// through it and the struct has no interior mutability — so `&Mapping`
// only hands out `&[u8]` reads; `Drop` needs `&mut self`, which no
// shared borrow can coexist with.
unsafe impl Sync for Mapping {}

#[cfg(all(unix, not(miri)))]
mod sys {
    use std::ffi::c_void;
    use std::os::raw::c_int;

    pub const PROT_READ: c_int = 1;
    pub const MAP_SHARED: c_int = 1;
    pub const MADV_DONTNEED: c_int = 4;

    // Raw libc symbols: the workspace deliberately carries no `libc` or
    // `memmap2` dependency, and these are linked by default on every Unix
    // target.
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
}

impl Mapping {
    #[cfg(all(unix, not(miri)))]
    fn map(file: &File, len: usize, path: &Path) -> Result<Self, MkbError> {
        use std::os::unix::io::AsRawFd;
        // SAFETY: fd is valid for the duration of the call; len > 0 is
        // guaranteed by the header-size check before mapping. The mapping
        // is read-only and outlives no borrow of it (Mapping owns it).
        let ptr = unsafe {
            sys::mmap(std::ptr::null_mut(), len, sys::PROT_READ, sys::MAP_SHARED, file.as_raw_fd(), 0)
        };
        if ptr as isize == -1 {
            return Err(io_err(path, &std::io::Error::last_os_error()));
        }
        Ok(Self { ptr, len })
    }

    #[cfg(any(not(unix), miri))]
    fn map(file: &File, len: usize, path: &Path) -> Result<Self, MkbError> {
        use std::io::Read as _;
        let mut buf = vec![0u64; len.div_ceil(8)];
        // SAFETY: the u64 buffer is a valid writable byte region of `len`
        // bytes (rounded up allocation); u64 has no invalid bit patterns.
        let bytes = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), len) };
        let mut f = file;
        f.read_exact(bytes).map_err(|e| io_err(path, &e))?;
        Ok(Self { buf, len })
    }

    fn bytes(&self) -> &[u8] {
        #[cfg(all(unix, not(miri)))]
        // SAFETY: ptr/len came from a successful mmap that this struct
        // owns until Drop; the pages are mapped readable.
        unsafe {
            std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len)
        }
        #[cfg(any(not(unix), miri))]
        // SAFETY: buf holds at least len initialized bytes.
        unsafe {
            std::slice::from_raw_parts(self.buf.as_ptr().cast::<u8>(), self.len)
        }
    }

    /// Takes the mapping's pages out of this process's resident set. The
    /// next read of a page faults it back from the page cache (or the
    /// file): the mapping is `MAP_SHARED` and read-only, so it holds no
    /// private copy to lose, and a refault returns the file's bytes, as
    /// one after an eviction under memory pressure does. The heap
    /// fallback has nothing to release.
    pub(crate) fn release_pages(&self) {
        #[cfg(all(unix, not(miri)))]
        // SAFETY: ptr/len are the exact range mmap returned, mapped until
        // Drop. MADV_DONTNEED on a read-only shared file mapping changes no
        // byte a borrow of it can read, only whether the page is resident
        // now. The result is ignored: the call is advisory, and no read
        // depends on it.
        unsafe {
            sys::madvise(self.ptr, self.len, sys::MADV_DONTNEED);
        }
    }
}

#[cfg(all(unix, not(miri)))]
impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: ptr/len are the exact values returned by mmap.
        unsafe {
            sys::munmap(self.ptr, self.len);
        }
    }
}

// ───────────────────────────── columns ─────────────────────────────

/// One column of a KB table: items the column owns, or items that lie in
/// an `.mkb` mapping the column shares — what [`MkbFile::to_pair`] returns
/// instead of a copy. Either way it reads as the slice (or `str`) it holds;
/// [`Self::to_mut`] copies a mapped column out before the first write.
///
/// The mapped case is built in this file only ([`Self::mapped`]), so the
/// `'static` view never leaves a `Stored`, which keeps the mapping alive
/// for as long as the view can be read.
pub(crate) struct Stored<O: Deref + 'static> {
    /// The items, unless a mapping holds them.
    owned: O,
    mapped: Option<MappedView<O::Target>>,
}

/// Items in a mapping, and the mapping. The view is declared first, so it
/// is dropped before the `Arc` that may unmap it.
struct MappedView<V: ?Sized + 'static> {
    view: &'static V,
    map: Arc<Mapping>,
}

impl<V: ?Sized + 'static> Clone for MappedView<V> {
    fn clone(&self) -> Self {
        Self { view: self.view, map: Arc::clone(&self.map) }
    }
}

impl<O: Deref + Clone + 'static> Clone for Stored<O> {
    fn clone(&self) -> Self {
        Self { owned: self.owned.clone(), mapped: self.mapped.clone() }
    }
}

/// A column of `T`: a table's offsets or data, a KB's URI or occurrence
/// column.
pub(crate) type Column<T> = Stored<Vec<T>>;

/// An interner's arena: its strings back to back.
pub(crate) type Text = Stored<String>;

impl<O: Deref + 'static> Stored<O> {
    /// A column of items held in memory.
    pub(crate) fn owned(owned: O) -> Self {
        Self { owned, mapped: None }
    }

    /// The items as the column's own, copied out of the mapping if they
    /// are in one.
    pub(crate) fn into_owned(self) -> O
    where
        O: for<'a> From<&'a O::Target>,
    {
        match self.mapped {
            Some(MappedView { view, .. }) => O::from(view),
            None => self.owned,
        }
    }

    /// The items to change in place; a mapped column becomes an owned copy
    /// first.
    #[inline]
    pub(crate) fn to_mut(&mut self) -> &mut O
    where
        O: for<'a> From<&'a O::Target>,
    {
        if self.mapped.is_some() {
            self.copy_out();
        }
        &mut self.owned
    }

    /// Makes a mapped column an owned copy: once per column at most, off
    /// the path of every write.
    #[cold]
    fn copy_out(&mut self)
    where
        O: for<'a> From<&'a O::Target>,
    {
        if let Some(MappedView { view, .. }) = self.mapped.take() {
            self.owned = O::from(view);
        }
    }
}

impl<O: Deref + Default + 'static> Default for Stored<O> {
    fn default() -> Self {
        Self::owned(O::default())
    }
}

impl<O: Deref + 'static> Deref for Stored<O> {
    type Target = O::Target;

    #[inline]
    fn deref(&self) -> &O::Target {
        match &self.mapped {
            Some(mapped) => mapped.view,
            None => &self.owned,
        }
    }
}

impl<O: Deref + 'static> fmt::Debug for Stored<O>
where
    O::Target: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A column item an `.mkb` section stores as itself: a byte, a `u32`, or a
/// `#[repr(transparent)]` wrapper of one — a type of which every bit
/// pattern of its size is a value. Private, and implemented here for these
/// types only.
trait Word: Copy + 'static {}
impl Word for u8 {}
impl Word for u32 {}
impl Word for TokenId {}
impl Word for AttrId {}
impl Word for Symbol {}

/// Bytes `range` of `map` as a column of `T` that shares the mapping — the
/// one place a mapped column is made. `open` validated the range in bounds
/// and aligned for its column; both are checked again here.
fn mapped_column<T: Word>(map: &Arc<Mapping>, range: &Range<usize>) -> Column<T> {
    let bytes = map.bytes().get(range.clone()).unwrap_or(&[]);
    assert!(
        bytes.as_ptr() as usize % std::mem::align_of::<T>() == 0 && bytes.len() % std::mem::size_of::<T>() == 0,
        "an .mkb column is aligned and sized for its items"
    );
    // SAFETY: `bytes` lies inside the mapping (`get` checked), starts
    // aligned for `T` and holds a whole number of `T`s (asserted
    // above); `T` is a `Word`, so every bit pattern read is a value.
    // The mapping is read-only and never moves or shrinks while an
    // `Arc` of it lives, and the view is stored only beside such an
    // `Arc` in a `Stored`, which lends it out for no longer than a
    // borrow of itself — so `'static` is never observed past the
    // mapping's life.
    let view: &'static [T] = unsafe {
        std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), bytes.len() / std::mem::size_of::<T>())
    };
    Stored { owned: Vec::new(), mapped: Some(MappedView { view, map: Arc::clone(map) }) }
}

impl Stored<String> {
    /// A column of bytes as text, if it is UTF-8 — still in the mapping
    /// when it was there.
    fn utf8(bytes: Stored<Vec<u8>>) -> Result<Self, std::str::Utf8Error> {
        let Stored { owned, mapped } = bytes;
        let owned = String::from_utf8(owned).map_err(|e| e.utf8_error())?;
        let mapped = match mapped {
            Some(MappedView { view, map }) => Some(MappedView { view: std::str::from_utf8(view)?, map }),
            None => None,
        };
        Ok(Self { owned, mapped })
    }
}

/// Byte ranges of one parsed table's offsets and data — an arena's data
/// is its UTF-8 bytes (absolute file offsets, validated 4-aligned and
/// in-bounds at open time).
#[derive(Debug, Clone)]
struct CsrRef {
    offsets: Range<usize>,
    data: Range<usize>,
}

/// How many `u32`s a column's byte range holds.
fn words(column: &Range<usize>) -> usize {
    column.len() / 4
}

impl CsrRef {
    /// One offset fewer than `open` claimed for the offsets column.
    fn rows(&self) -> usize {
        words(&self.offsets) - 1
    }
}

/// A structurally validated, memory-mapped `.mkb` file.
///
/// [`Self::open`] checks structure only; [`Self::verify`] checks the
/// contents against their checksums, and [`Self::to_pair`] — the one way
/// to read a KB out of the file — verifies first.
#[derive(Debug)]
pub struct MkbFile {
    map: Arc<Mapping>,
    path: PathBuf,
    dirty: bool,
    segment: Segment,
    arenas: [CsrRef; 4], // tokens, literals, attrs, uris
    literal_tokens: CsrRef,
    ent_uri: [Range<usize>; 2],
    pairs_offsets: [CsrRef; 2], // data range covers attr column; values follow
    pairs_vals: [Range<usize>; 2],
    toksets: [CsrRef; 2],
    tokocc: [Range<usize>; 2],
}

/// Bounds-checked cursor over one section's bytes (absolute offsets).
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    end: usize,
    path: &'a Path,
    what: &'a str,
}

impl<'a> Cursor<'a> {
    fn u64(&mut self) -> Result<u64, MkbError> {
        let at = self.raw(8)?;
        let word = self.bytes.get(at).and_then(|b| b.try_into().ok()).map(u64::from_ne_bytes);
        word.ok_or_else(|| corrupt(self.path, format!("{}: truncated scalar", self.what)))
    }

    /// Claims `n` u32 words, returning their absolute byte range, then
    /// skips padding to the next 8-byte boundary.
    fn u32s(&mut self, n: usize) -> Result<Range<usize>, MkbError> {
        let bytes = n.checked_mul(4).ok_or_else(|| corrupt(self.path, format!("{}: count overflow", self.what)))?;
        self.raw(bytes)
    }

    /// Claims `n` raw bytes, returning their absolute range, then skips
    /// padding to the next 8-byte boundary.
    fn raw(&mut self, n: usize) -> Result<Range<usize>, MkbError> {
        let lo = self.pos;
        let hi = lo.checked_add(n).ok_or_else(|| corrupt(self.path, format!("{}: length overflow", self.what)))?;
        if hi > self.end {
            return Err(corrupt(self.path, format!("{}: truncated bytes", self.what)));
        }
        self.pos = hi + (8 - hi % 8) % 8;
        if self.pos > self.end {
            return Err(corrupt(self.path, format!("{}: truncated padding", self.what)));
        }
        Ok(lo..hi)
    }
}

/// The `u32` at `at`, inside a range `Cursor::u32s` checked against its
/// section's end.
fn read_u32(bytes: &[u8], at: usize) -> u32 {
    bytes.get(at..at + 4).and_then(|b| b.try_into().ok()).map_or(0, u32::from_ne_bytes)
}

impl MkbFile {
    /// Opens and structurally validates an `.mkb` file: the segment's
    /// header and section table, and every section's internal
    /// offsets/bounds — but *not* the content checksums (see
    /// [`Self::verify`]). This is the microsecond-scale open path.
    pub fn open(path: &Path) -> Result<Self, MkbError> {
        let file = File::open(path).map_err(|e| io_err(path, &e))?;
        let len = file.metadata().map_err(|e| io_err(path, &e))?.len();
        let len = usize::try_from(len).map_err(|_| corrupt(path, "file larger than address space"))?;
        if len == 0 {
            return Err(corrupt(path, "the file is empty"));
        }
        let map = Arc::new(Mapping::map(&file, len, path)?);
        let bytes = map.bytes();
        if bytes.as_ptr() as usize % 8 != 0 {
            return Err(corrupt(path, "mapping is not 8-byte aligned"));
        }
        let segment = Segment::parse(bytes, Kind::MKB, MKB_FORMAT_VERSION).map_err(|e| segment_err(path, e))?;
        if segment.sections().len() != SECTION_COUNT {
            return Err(corrupt(path, format!("expected {SECTION_COUNT} sections, found {}", segment.sections().len())));
        }

        // External-truncation guard: `len` came from the stat above, but
        // another process may have truncated the file between that stat
        // and the mmap — touching a page past the new EOF would SIGBUS
        // during the section validation below. Re-stat now so a
        // stat-to-map race surfaces as a typed error instead. A
        // truncation *after* this check can still SIGBUS on first access;
        // that residual contract is documented in DESIGN.md §18.
        let now = file.metadata().map_err(|e| io_err(path, &e))?.len();
        if now < len as u64 {
            return Err(corrupt(
                path,
                format!("file truncated while opening ({now} bytes now, {len} at map time)"),
            ));
        }

        let cursor = |id: u32, what: &'static str| -> Result<Cursor<'_>, MkbError> {
            let range = segment.section(id).map_err(|e| segment_err(path, e))?.range();
            Ok(Cursor { bytes, pos: range.start, end: range.end, path, what })
        };

        // A row count and that many + 1 offsets, which must be monotone;
        // the last names the length of the column(s) they index.
        let parse_offsets = |c: &mut Cursor<'_>, what: &str| -> Result<(Range<usize>, usize), MkbError> {
            let rows = c.u64()? as usize;
            let offsets = c.u32s(rows.checked_add(1).ok_or_else(|| corrupt(path, format!("{what}: count overflow")))?)?;
            let mut prev = 0u32;
            for i in 0..=rows {
                let v = read_u32(bytes, offsets.start + i * 4);
                if v < prev {
                    return Err(corrupt(path, format!("{what}: offsets not monotone at {i}")));
                }
                prev = v;
            }
            Ok((offsets, prev as usize))
        };

        let parse_arena = |id: u32, what: &'static str| -> Result<CsrRef, MkbError> {
            let mut c = cursor(id, what)?;
            let (offsets, byte_len) = parse_offsets(&mut c, what)?;
            Ok(CsrRef { offsets, data: c.raw(byte_len)? })
        };

        let parse_csr = |id: u32, what: &'static str| -> Result<CsrRef, MkbError> {
            let mut c = cursor(id, what)?;
            let (offsets, len) = parse_offsets(&mut c, what)?;
            Ok(CsrRef { offsets, data: c.u32s(len)? })
        };

        let parse_col = |id: u32, what: &'static str| -> Result<Range<usize>, MkbError> {
            let mut c = cursor(id, what)?;
            let count = c.u64()? as usize;
            c.u32s(count)
        };

        // Pairs sections: CSR offsets + attr column + value column.
        let parse_pairs = |id: u32, what: &'static str| -> Result<(CsrRef, Range<usize>), MkbError> {
            let mut c = cursor(id, what)?;
            let (offsets, len) = parse_offsets(&mut c, what)?;
            let attrs = c.u32s(len)?;
            Ok((CsrRef { offsets, data: attrs }, c.u32s(len)?))
        };

        let arenas = [
            parse_arena(section::TOKENS, "tokens arena")?,
            parse_arena(section::LITERALS, "literals arena")?,
            parse_arena(section::ATTRS, "attrs arena")?,
            parse_arena(section::URIS, "uris arena")?,
        ];
        let literal_tokens = parse_csr(section::LITERAL_TOKENS, "literal tokens")?;
        let ent_uri = [
            parse_col(section::ENT_URI_L, "left entity uris")?,
            parse_col(section::ENT_URI_R, "right entity uris")?,
        ];
        let (pairs_l, vals_l) = parse_pairs(section::PAIRS_L, "left pairs")?;
        let (pairs_r, vals_r) = parse_pairs(section::PAIRS_R, "right pairs")?;
        let toksets = [
            parse_csr(section::TOKSET_L, "left token sets")?,
            parse_csr(section::TOKSET_R, "right token sets")?,
        ];
        let tokocc = [
            parse_col(section::TOKOCC_L, "left token occurrences")?,
            parse_col(section::TOKOCC_R, "right token occurrences")?,
        ];

        // Per-side column counts must agree.
        // bound: `i = side.index()` < 2, the length of every per-side array.
        #[allow(clippy::indexing_slicing)]
        for side in [Side::Left, Side::Right] {
            let i = side.index();
            let n = words(&ent_uri[i]);
            if [&pairs_l, &pairs_r][i].rows() != n || toksets[i].rows() != n || words(&tokocc[i]) != n {
                return Err(corrupt(path, format!("{side:?}: per-entity column counts disagree")));
            }
        }

        Ok(Self {
            map,
            path: path.to_path_buf(),
            dirty: segment.flags() & FLAG_DIRTY != 0,
            segment,
            arenas,
            literal_tokens,
            ent_uri,
            pairs_offsets: [pairs_l, pairs_r],
            pairs_vals: [vals_l, vals_r],
            toksets,
            tokocc,
        })
    }

    /// The path this file was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total mapped bytes.
    pub fn len_bytes(&self) -> usize {
        self.map.bytes().len()
    }

    /// Recomputes every section's checksum against the table. A
    /// mismatch means bytes changed at rest (bit rot, torn write, tamper)
    /// and yields [`MkbError::Corrupt`] — never a silent wrong read.
    pub fn verify(&self) -> Result<(), MkbError> {
        self.segment.verify(self.map.bytes()).map_err(|e| segment_err(&self.path, e))
    }

    /// Bytes `range` of the file as a column of `T`, in place.
    fn column<T: Word>(&self, range: &Range<usize>) -> Column<T> {
        mapped_column(&self.map, range)
    }

    /// A stored offsets column and the data column it cuts into rows, as a
    /// table — every CSR-shaped section's one validator.
    fn rows<T: Word>(&self, what: &str, offsets: &Range<usize>, data: Column<T>) -> Result<Rows<T>, MkbError> {
        Rows::from_columns(self.column(offsets), data).map_err(|detail| corrupt(&self.path, format!("{what}: {detail}")))
    }

    /// Fully verifies the file and returns the [`KbPair`] it holds, its
    /// columns left where they are: every table of the pair is a range of
    /// this file's mapping, which the pair shares (and keeps mapped after
    /// the `MkbFile` is gone). An interner's lookup table is built on its
    /// first [`Interner::get`].
    ///
    /// The checks read every page of the file; once they have passed, the
    /// pages leave the resident set again ([`KbPair::release_mapped_pages`]),
    /// so a reader of the pair faults back only the pages it reads.
    ///
    /// Nothing is parsed, normalized or tokenized, so the result is
    /// *identical* (not just equivalent) to the pair that was compiled:
    /// same interner order, same ids, same token sets, hence bit-identical
    /// resolution results.
    ///
    /// Beyond the checksums, every arena must be UTF-8 cut on char
    /// boundaries into distinct strings, every CSR and pairs table must
    /// start at 0 and span its columns, every id in every column must be in
    /// range, an entity's token set must ascend strictly and a side's URI
    /// column must name each URI once — blocks are counting inversions of
    /// those columns, so a repeated token would be a repeated block member
    /// and a doubled β term. A dirty pair's right-side sections must be
    /// its left-side sections byte for byte: the two sides are one KB, and
    /// the left side's columns serve both. Anything else is
    /// [`MkbError::Corrupt`]. Each check reads the mapping once.
    pub fn to_pair(&self) -> Result<KbPair, MkbError> {
        self.verify()?;
        let path = &self.path;
        if self.dirty {
            let twins = [
                (section::ENT_URI_L, section::ENT_URI_R),
                (section::PAIRS_L, section::PAIRS_R),
                (section::TOKSET_L, section::TOKSET_R),
                (section::TOKOCC_L, section::TOKOCC_R),
            ];
            let section = |id| self.segment.bytes(self.map.bytes(), id).ok();
            if let Some((left, right)) = twins.into_iter().find(|&(l, r)| section(l) != section(r)) {
                return Err(corrupt(path, format!("dirty flag set but section {right} is not section {left}")));
            }
        }

        let interner = |arena: &CsrRef, what: &str| -> Result<Interner, MkbError> {
            let text = Stored::utf8(self.column(&arena.data))
                .map_err(|e| corrupt(path, format!("{what}: invalid UTF-8 at arena byte {}", e.valid_up_to())))?;
            Interner::from_columns(text, self.column(&arena.offsets))
                .map_err(|detail| corrupt(path, format!("{what}: {detail}")))
        };
        let [tokens_arena, literals_arena, attrs_arena, uris_arena] = &self.arenas;
        let tokens = interner(tokens_arena, "tokens arena")?;
        let literals = interner(literals_arena, "literals arena")?;
        let attrs = interner(attrs_arena, "attrs arena")?;
        let uris = interner(uris_arena, "uris arena")?;
        let [toks_len, lits_len, attrs_len] = [&tokens, &literals, &attrs].map(|i| i.len() as u32);

        let token_rows = |csr: &CsrRef, what: &str| -> Result<Rows<TokenId>, MkbError> {
            let data: Column<TokenId> = self.column(&csr.data);
            if data.iter().fold(false, |bad, t| bad | (t.0 >= toks_len)) {
                return Err(corrupt(path, format!("{what}: token id out of range")));
            }
            self.rows(what, &csr.offsets, data)
        };
        if self.literal_tokens.rows() != literals.len() {
            return Err(corrupt(path, "literal token CSR row count disagrees with literal arena"));
        }
        let literal_tokens = token_rows(&self.literal_tokens, "literal tokens")?;

        // bound: `i = side.index()` < 2, the length of every per-side array of
        // `self`.
        #[allow(clippy::indexing_slicing)]
        let build_side = |side: Side| -> Result<Kb, MkbError> {
            let i = side.index();
            let uri_col: Column<Symbol> = self.column(&self.ent_uri[i]);
            let n = uri_col.len();
            let uri_index = UriIndex::of_column(&uri_col, uris.len())
                .map_err(|(e, what)| corrupt(path, format!("{side:?} entity {e}: {what}")))?;
            let (offsets, attr_col, val_col) = (&self.pairs_offsets[i].offsets, &self.pairs_offsets[i].data, &self.pairs_vals[i]);
            let (attr_col, val_col): (Column<AttrId>, Column<u32>) = (self.column(attr_col), self.column(val_col));
            let n_refs = u32::try_from(n).unwrap_or(u32::MAX);
            let out_of_range = |(&a, &w): (&AttrId, &u32)| {
                let (is_ref, id) = Value::split_word(w);
                (a.0 >= attrs_len) | (id >= if is_ref { n_refs } else { lits_len })
            };
            // A fold without an early exit, so that it vectorizes; the pair
            // to blame is looked for only when there is one.
            let pairs = || attr_col.iter().zip(val_col.iter());
            if let Some(p) = pairs().fold(false, |bad, pair| bad | out_of_range(pair)).then(|| pairs().position(out_of_range)).flatten() {
                // Names the entity whose row holds pair `p`, and what is wrong.
                let starts: Column<u32> = self.column(offsets);
                let e = starts.partition_point(|&start| start as usize <= p).saturating_sub(1);
                let what = match (attr_col.get(p), val_col.get(p).map(|&w| Value::from_word(w))) {
                    (Some(a), _) if a.0 >= attrs_len => "attr id",
                    (_, Some(Value::Ref(_))) => "ref target",
                    _ => "literal id",
                };
                return Err(corrupt(path, format!("{side:?} entity {e}: {what} out of range")));
            }
            let pairs = self.rows(&format!("{side:?} pairs"), offsets, attr_col)?;
            let token_sets = token_rows(&self.toksets[i], &format!("{side:?} token sets"))?;
            if let Some(e) = first_unsorted_row(&token_sets) {
                return Err(corrupt(path, format!("{side:?} entity {e}: token set is not strictly ascending")));
            }
            let occurrences = self.column(&self.tokocc[i]);
            Ok(Kb::from_columns(uri_col, uri_index, pairs, val_col, token_sets, occurrences))
        };

        let left = build_side(Side::Left)?;
        let right = if self.dirty { left.clone() } else { build_side(Side::Right)? };
        let interners = [tokens, literals, attrs, uris];
        let pair = KbPair::from_parts(interners, literal_tokens, [left, right], self.dirty, Arc::clone(&self.map));
        pair.release_mapped_pages();
        Ok(pair)
    }
}

/// The first row of `table` that does not ascend strictly, if any.
///
/// Every row ascends strictly exactly when each item is less than the next
/// one but where a row ends: so one vectorizing pass counts the descents
/// (and repeats) over the whole data column, a second the ones across a
/// row's end, and rows are looked at one by one only if the counts differ.
fn first_unsorted_row(table: &Rows<TokenId>) -> Option<usize> {
    let descents = |items: &[TokenId]| {
        items.iter().zip(items.iter().skip(1)).fold(0usize, |n, (a, b)| n + usize::from(a >= b))
    };
    let (mut within, mut across) = (0usize, 0usize);
    for (offsets, items) in table.column_parts() {
        within += descents(items);
        // Between the last item of each row that has one and the item after.
        let rows = offsets.iter().zip(offsets.iter().skip(1)).filter(|(start, end)| start < end);
        let ends = rows.filter_map(|(_, &end)| Some((items.get(end as usize - 1)?, items.get(end as usize)?)));
        across += ends.filter(|(last, next)| last >= next).count();
    }
    let ascending = |row: &[TokenId]| descents(row) == 0;
    (within != across).then(|| table.iter().position(|row| !ascending(row))).flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirty::DirtyKbBuilder;
    use crate::model::EntityId;
    use crate::store::{KbPairBuilder, Term};
    use std::fs;

    fn sample_pair() -> KbPair {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "w:Restaurant1", "w:label", Term::Literal("The Fat Duck"));
        b.add_triple(Side::Left, "w:Restaurant1", "w:hasChef", Term::Uri("w:JohnLakeA"));
        b.add_triple(Side::Left, "w:JohnLakeA", "w:label", Term::Literal("John Lake A"));
        b.add_triple(Side::Right, "d:Restaurant2", "d:name", Term::Literal("Fat Duck Bray"));
        b.add_triple(Side::Right, "d:Restaurant2", "d:headChef", Term::Uri("d:JonnyLake"));
        b.add_triple(Side::Right, "d:JonnyLake", "d:name", Term::Literal("Jonny Lake"));
        b.finish()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mkb-unit-{}-{tag}", std::process::id()));
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    /// The reservation covers the sections, so the buffer never grows by
    /// doubling while they are encoded.
    #[test]
    fn payload_bound_covers_the_sections() {
        let mut d = DirtyKbBuilder::new();
        d.add_triple("e0", "p", Term::Literal("a b c"));
        for pair in [sample_pair(), d.finish()] {
            let path = tmp_dir("bound").join("pair.mkb");
            let len = write_mkb(&pair, &path).expect("write") as usize;
            let table_end = segment::HEADER_LEN + SECTION_COUNT * segment::ENTRY_LEN;
            assert!(len - table_end <= payload_bound(&pair), "{len} bytes, bound {}", payload_bound(&pair));
        }
    }

    #[test]
    fn faulted_compile_leaks_no_scratch_and_preserves_the_old_file() {
        use minoaner_det::vfs::{FaultFs, FaultKind, FaultPlan};
        let pair = sample_pair();
        let dir = tmp_dir("faulted");
        let path = dir.join("pair.mkb");
        write_mkb(&pair, &path).expect("seed a good file");
        let good = fs::read(&path).expect("read good file");

        // Enumerate the commit's ops, then fail each one in turn.
        let probe = FaultFs::new(FaultPlan::none());
        write_mkb_with(&pair, &path, &*probe).expect("probe compile");
        let n_ops = probe.op_count();
        assert!(n_ops >= 4, "write + sync + rename + dir sync, saw {n_ops}");
        for k in 0..n_ops {
            for kind in FaultKind::ALL {
                let ffs = FaultFs::new(FaultPlan::fail_op(k, kind));
                let err = write_mkb_with(&pair, &path, &*ffs).expect_err("commit must fail");
                assert!(matches!(err, MkbError::Io { .. }), "op {k} {kind:?}: {err:?}");
                for entry in fs::read_dir(&dir).expect("scan dir") {
                    let name = entry.expect("entry").file_name().to_string_lossy().into_owned();
                    assert!(!name.starts_with(".tmp-"), "op {k} {kind:?} leaked {name}");
                }
                // Failures before the rename leave the old file bytes
                // untouched; a failed dir-sync after the rename has
                // already (legitimately) replaced them with the
                // identical recompiled bytes.
                assert_eq!(fs::read(&path).expect("read"), good, "op {k} {kind:?}");
                MkbFile::open(&path).expect("old file still opens").verify().expect("valid");
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// Where section `id`'s payload lies, from the section table.
    fn section_range(bytes: &[u8], id: u32) -> Range<usize> {
        let segment = Segment::parse(bytes, Kind::MKB, MKB_FORMAT_VERSION).expect("an intact segment");
        segment.section(id).expect("section present").range()
    }

    /// Damage that keeps the section table and the checksums valid — a file
    /// written by something else, not one that rotted — must still not
    /// become a `KbPair` whose tables disagree with themselves.
    #[test]
    fn to_pair_validates_what_the_checksums_cannot() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "l", "p", Term::Literal("café"));
        b.add_triple(Side::Left, "l", "p", Term::Literal("aa"));
        b.add_triple(Side::Left, "l2", "p", Term::Literal("aa"));
        b.add_triple(Side::Right, "r", "p", Term::Literal("ab"));
        let dir = tmp_dir("resealed");
        let path = dir.join("pair.mkb");
        write_mkb(&b.finish(), &path).expect("write");
        let good = fs::read(&path).expect("read");
        // A dirty pair: its right-side sections are copies of its left.
        let mut d = DirtyKbBuilder::new();
        d.add_triple("e0", "p", Term::Literal("aa"));
        d.add_triple("e1", "p", Term::Literal("ab"));
        write_mkb(&d.finish(), &path).expect("write");
        let dirty = fs::read(&path).expect("read");

        // Each edit gets its section's bytes: count u64, then the offsets
        // [0, 5, 7, 9] (literals), [0, 1, 2, 3] (literal tokens), [0, 2, 3]
        // (left pairs and left token sets) or [0, 1] (right pairs), then
        // the arena bytes "caféaaab" or the data column(s) — the left token
        // sets [0, 1 | 1] behind four bytes of padding, the left uri column
        // [0, 1] straight behind its count. A last offset that is not the
        // column's length cannot be written: `open` sizes the columns by it.
        // The dirty pair's right uri column is [0, 1] too.
        fn put_u32(section: &mut [u8], at: usize, v: u32) {
            section[at..at + 4].copy_from_slice(&v.to_ne_bytes());
        }
        type Edit = fn(&mut [u8]);
        let cases: [(&[u8], u32, Edit, &str); 12] = [
            (&good, section::LITERALS, |s| s[8 + 4 * 4 + 3] = 0xFF, "invalid UTF-8"),
            (&good, section::LITERALS, |s| put_u32(s, 8 + 4, 4), "UTF-8 boundaries"), // "caf\xC3" | "\xA9aa"
            (&good, section::LITERALS, |s| s[8 + 4 * 4 + 8] = b'a', "repeats"), // "ab" becomes a second "aa"
            (&good, section::LITERALS, |s| put_u32(s, 8, 1), "start at byte 0"),
            (&good, section::LITERAL_TOKENS, |s| put_u32(s, 8, 1), "start at entry 0"),
            (&good, section::LITERAL_TOKENS, |s| put_u32(s, 8 + 4 * 4, 99), "token id out of range"),
            // Entity 0 starting at pair 1 used to load with pair 0 dropped.
            (&good, section::PAIRS_L, |s| put_u32(s, 8, 1), "Left pairs: the first row does not start at entry 0"),
            (&good, section::PAIRS_R, |s| put_u32(s, 8, 1), "Right pairs: the first row does not start at entry 0"),
            // A repeated token is a repeated block member, i.e. a doubled β
            // term; an unsorted set breaks every merge over it.
            (&good, section::TOKSET_L, |s| put_u32(s, 24, 1), "Left entity 0: token set is not strictly ascending"),
            (
                &good,
                section::TOKSET_L,
                |s| {
                    put_u32(s, 24, 1);
                    put_u32(s, 28, 0);
                },
                "Left entity 0: token set is not strictly ascending",
            ),
            // Two entities under one URI: `entity_by_uri` would answer for
            // the later one only.
            (&good, section::ENT_URI_L, |s| put_u32(s, 12, 0), "Left entity 1: its uri names an earlier entity too"),
            // A dirty pair whose right side is another order of its left
            // used to load, with `e0` on the left against `e1` on the right
            // under one id: "identity" pairs between different entities.
            (
                &dirty,
                section::ENT_URI_R,
                |s| {
                    put_u32(s, 8, 1);
                    put_u32(s, 12, 0);
                },
                "dirty flag set but section 7 is not section 6",
            ),
        ];
        let literals = section_range(&good, section::LITERALS).start;
        assert_eq!(&good[literals + 8 + 4 * 4..][..9], "caféaaab".as_bytes());
        fs::write(&path, &dirty).expect("write dirty");
        let mirrored: KbPair = MkbFile::open(&path).and_then(|file| file.to_pair()).expect("an intact dirty pair loads");
        assert!(mirrored.is_dirty());
        assert_eq!((mirrored.uri_of(Side::Left, EntityId(1)), mirrored.uri_of(Side::Right, EntityId(1))), ("e1", "e1"));
        for (source, id, edit, expected) in cases {
            let mut bytes = source.to_vec();
            let range = section_range(&bytes, id);
            edit(&mut bytes[range]);
            assert_ne!(bytes, source, "{expected}: the edit must change the file");
            segment::seal(&mut bytes).expect("reseal");
            fs::write(&path, &bytes).expect("write damaged");

            let file = MkbFile::open(&path).expect("structure is intact");
            file.verify().expect("checksums are intact");
            match file.to_pair() {
                Err(MkbError::Corrupt { detail, .. }) => assert!(detail.contains(expected), "{expected}: {detail}"),
                other => panic!("{expected}: expected Corrupt, got {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn first_unsorted_row_is_the_first_row_a_pairwise_check_rejects() {
        minoaner_det::rng::for_each_seed(400, |rng| {
            // Rows sorted (and deduplicated) two times in three, over a
            // small token range, so that rows meet at equal tokens too.
            let rows: Vec<Vec<TokenId>> = (0..rng.gen_range(0..12usize))
                .map(|_| {
                    let mut row: Vec<TokenId> =
                        (0..rng.gen_range(0..6usize)).map(|_| TokenId(rng.gen_range(0..10usize) as u32)).collect();
                    if rng.gen_range(0..3usize) > 0 {
                        row.sort_unstable();
                        row.dedup();
                    }
                    row
                })
                .collect();
            let want = rows.iter().position(|row| row.windows(2).any(|pair| pair[0] >= pair[1]));
            let whole: Rows<TokenId> = rows.iter().cloned().collect();
            assert_eq!(first_unsorted_row(&whole), want, "{rows:?}");
            let chunk = 1 + rng.gen_range(0..rows.len().max(1));
            let parted = Rows::parted(rows.chunks(chunk).map(|part| part.iter().cloned().collect()).collect());
            assert_eq!(first_unsorted_row(&parted), want, "{rows:?} in parts of {chunk}");
        });
    }

    #[test]
    fn open_rejects_non_mkb_bytes() {
        let dir = tmp_dir("magic");
        let path = dir.join("not.mkb");
        fs::write(&path, b"definitely not a container file, but long enough").expect("write");
        let err = MkbFile::open(&path).expect_err("must reject");
        assert!(matches!(err, MkbError::Corrupt { .. }), "got {err:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_display_names_the_class() {
        let e = MkbError::SchemaMismatch { found: 9, expected: 1 };
        assert!(e.to_string().contains("version 9"));
        let e = MkbError::EndianMismatch { found: 0x0403_0201 };
        assert!(e.to_string().contains("endianness"));
    }
}

//! The `.mkb` on-disk columnar container: a compiled [`KbPair`] that opens
//! in microseconds via `mmap` instead of re-parsing N-Triples.
//!
//! # Layout (format version 2)
//!
//! All integers are stored in *native* endianness; a header tag rejects
//! files compiled on a machine of the other endianness instead of silently
//! misreading them. Every section starts 8-byte aligned so `u32`/`u64`
//! columns can be viewed in place from the mapping.
//!
//! ```text
//! header   (32 B): magic "MINOANKB" · format version u32 · endian tag u32
//!                  · section count u32 · flags u32 (bit 0 = dirty pair)
//!                  · reserved u64
//! table    (32 B × n): { id u32, pad u32, offset u64, len u64, checksum u64 }
//! sections (8-byte aligned, each under `minoaner_det::checksum`):
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
//! Version 1 had the same layout under byte-serial FNV-1a; a version-1
//! file is refused with [`MkbError::SchemaMismatch`] — recompile it from its
//! documents. There is one reader.
//!
//! The arena, CSR and pairs sections are the columns [`Interner`] and the
//! pair's [`Rows`] tables hold in memory — one byte arena or one data
//! column, plus cumulative offsets from 0 (a pair's attribute and value are
//! one column in memory, two on disk). Writing copies those columns;
//! [`MkbFile::to_pair`] validates them and copies them back.
//!
//! [`MkbFile::open`] only validates structure (magic, version, endianness,
//! alignment, section bounds) — the cheap path benchmarked against
//! re-parsing. [`MkbFile::verify`] checks every section checksum, and
//! [`MkbFile::to_pair`] verifies before materializing, so a bit-flipped
//! file fails closed with a typed [`MkbError`] instead of producing a
//! silently wrong KB.

use std::fmt;
use std::fs::File;
use std::ops::Range;
use std::path::{Path, PathBuf};

use minoaner_det::checksum;
use minoaner_det::vfs::{self, Vfs};

use crate::interner::{Interner, Symbol};
use crate::model::{AttrId, EntityId, LiteralId, Side, TokenId, Value};
use crate::rows::Rows;
use crate::store::{Kb, KbPair};

/// Version of the `.mkb` layout this build reads and writes.
pub const MKB_FORMAT_VERSION: u32 = 2;

/// Leading magic bytes of every `.mkb` file.
pub const MKB_MAGIC: [u8; 8] = *b"MINOANKB";

/// Endianness fingerprint: written natively, so a reader on the other
/// endianness sees the byte-swapped value and rejects the file.
const ENDIAN_TAG: u32 = 0x0102_0304;

const FLAG_DIRTY: u32 = 1;
const HEADER_LEN: usize = 32;
const TABLE_ENTRY_LEN: usize = 32;
const SECTION_COUNT: usize = 13;
/// High bit of a stored value word: set ⇒ `Value::Ref`, clear ⇒
/// `Value::Literal`. Ids must therefore stay below 2³¹.
const REF_BIT: u32 = 0x8000_0000;

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
    /// The pair does not fit the format's 32-bit columns.
    TooLarge { what: String },
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
            MkbError::TooLarge { what } => write!(f, "KB too large for mkb format: {what}"),
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

// ───────────────────────────── writing ─────────────────────────────

/// Little-endian-free section builder: appends native-endian words and
/// keeps 8-byte alignment at the seams between scalar and array parts.
#[derive(Default)]
struct SectionBuf {
    buf: Vec<u8>,
}

impl SectionBuf {
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_ne_bytes());
    }

    fn u32_iter(&mut self, vs: impl Iterator<Item = u32>) {
        for v in vs {
            self.buf.extend_from_slice(&v.to_ne_bytes());
        }
        self.pad8();
    }

    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
        self.pad8();
    }

    fn pad8(&mut self) {
        while self.buf.len() % 8 != 0 {
            self.buf.push(0);
        }
    }
}

/// Serializes an interner: count, cumulative byte offsets, concatenated
/// UTF-8, in interning order (symbols are positional). These are the
/// interner's own columns, copied; it keeps them under 4 GiB itself.
fn arena_section(interner: &Interner) -> Vec<u8> {
    let mut s = SectionBuf::default();
    s.u64(interner.len() as u64);
    s.u32_iter(interner.offsets().iter().copied());
    s.bytes(interner.arena().as_bytes());
    s.buf
}

/// Serializes row-major variable-length token data as a CSR section —
/// again the table's own two columns, copied.
fn csr_section(rows: &Rows<TokenId>) -> Vec<u8> {
    let mut s = SectionBuf::default();
    s.u64(rows.n_rows() as u64);
    s.u32_iter(rows.offsets().iter().copied());
    s.u32_iter(rows.data().iter().map(|t| t.0));
    s.buf
}

/// Serializes a plain u32 column.
fn u32_column(vals: impl ExactSizeIterator<Item = u32>) -> Vec<u8> {
    let mut s = SectionBuf::default();
    s.u64(vals.len() as u64);
    s.u32_iter(vals);
    s.buf
}

/// Serializes one side's attribute–value pairs as parallel attr/value
/// columns behind the table's own per-entity offsets.
fn pairs_section(pairs: &Rows<(AttrId, Value)>) -> Result<Vec<u8>, MkbError> {
    let value_word = |&(_, v): &(AttrId, Value)| match v {
        Value::Literal(l) if l.0 & REF_BIT == 0 => Ok(l.0),
        Value::Literal(_) => Err(MkbError::TooLarge { what: "literal id exceeds 2^31".into() }),
        Value::Ref(t) if t.0 & REF_BIT == 0 => Ok(t.0 | REF_BIT),
        Value::Ref(_) => Err(MkbError::TooLarge { what: "entity id exceeds 2^31".into() }),
    };
    let vals = pairs.data().iter().map(value_word).collect::<Result<Vec<u32>, _>>()?;
    let mut s = SectionBuf::default();
    s.u64(pairs.n_rows() as u64);
    s.u32_iter(pairs.offsets().iter().copied());
    s.u32_iter(pairs.data().iter().map(|&(a, _)| a.0));
    s.u32_iter(vals.into_iter());
    Ok(s.buf)
}

/// Compiles a [`KbPair`] into an `.mkb` container at `path`, atomically:
/// the bytes land in a `.tmp-` sibling, are fsynced, renamed over the
/// target, and the directory is fsynced — the same commit protocol as the
/// dataflow checkpoint store. Returns the file's total size in bytes.
pub fn write_mkb(pair: &KbPair, path: &Path) -> Result<u64, MkbError> {
    write_mkb_with(pair, path, &*vfs::default_vfs())
}

/// [`write_mkb`] against an explicit [`Vfs`] — the chaos harness's
/// injection seam for the compile path. A failed commit removes the
/// `.tmp-` sibling (best-effort) so a full disk never leaks scratch, and
/// a pre-existing `.mkb` at `path` is left untouched until the rename.
pub fn write_mkb_with(pair: &KbPair, path: &Path, vfs: &dyn Vfs) -> Result<u64, MkbError> {
    let (left, right) = (pair.kb(Side::Left), pair.kb(Side::Right));
    let ((uris_l, pairs_l), (tokset_l, tokocc_l)) = (left.entity_columns(), left.token_columns());
    let ((uris_r, pairs_r), (tokset_r, tokocc_r)) = (right.entity_columns(), right.token_columns());

    let sections: Vec<(u32, Vec<u8>)> = vec![
        (section::TOKENS, arena_section(pair.tokens())),
        (section::LITERALS, arena_section(pair.literals())),
        (section::ATTRS, arena_section(pair.attrs())),
        (section::URIS, arena_section(pair.uris())),
        (section::LITERAL_TOKENS, csr_section(pair.literal_tokens())),
        (section::ENT_URI_L, u32_column(uris_l.iter().map(|uri| uri.0))),
        (section::ENT_URI_R, u32_column(uris_r.iter().map(|uri| uri.0))),
        (section::PAIRS_L, pairs_section(pairs_l)?),
        (section::PAIRS_R, pairs_section(pairs_r)?),
        (section::TOKSET_L, csr_section(tokset_l)),
        (section::TOKSET_R, csr_section(tokset_r)),
        (section::TOKOCC_L, u32_column(tokocc_l.iter().copied())),
        (section::TOKOCC_R, u32_column(tokocc_r.iter().copied())),
    ];
    debug_assert_eq!(sections.len(), SECTION_COUNT);

    // Assemble header + table + 8-aligned payloads.
    let table_len = sections.len() * TABLE_ENTRY_LEN;
    let mut payload_off = HEADER_LEN + table_len;
    payload_off += (8 - payload_off % 8) % 8;
    let mut out = Vec::with_capacity(payload_off + sections.iter().map(|(_, b)| b.len()).sum::<usize>());
    out.extend_from_slice(&MKB_MAGIC);
    out.extend_from_slice(&MKB_FORMAT_VERSION.to_ne_bytes());
    out.extend_from_slice(&ENDIAN_TAG.to_ne_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_ne_bytes());
    let flags: u32 = if pair.is_dirty() { FLAG_DIRTY } else { 0 };
    out.extend_from_slice(&flags.to_ne_bytes());
    out.extend_from_slice(&0u64.to_ne_bytes()); // reserved
    debug_assert_eq!(out.len(), HEADER_LEN);

    let mut off = payload_off as u64;
    for (id, bytes) in &sections {
        out.extend_from_slice(&id.to_ne_bytes());
        out.extend_from_slice(&0u32.to_ne_bytes());
        out.extend_from_slice(&off.to_ne_bytes());
        out.extend_from_slice(&(bytes.len() as u64).to_ne_bytes());
        out.extend_from_slice(&checksum(bytes).to_ne_bytes());
        off += bytes.len() as u64;
        debug_assert_eq!(off % 8, 0, "section payloads are 8-byte multiples");
    }
    out.resize(payload_off, 0);
    for (_, bytes) in &sections {
        out.extend_from_slice(bytes);
    }

    vfs::commit_file(vfs, path, &out).map_err(|(at, e)| io_err(&at, &e))?;
    Ok(out.len() as u64)
}

// ───────────────────────────── mapping ─────────────────────────────

/// Owned read-only byte view of a file. On Unix this is a real
/// `mmap(PROT_READ, MAP_SHARED)` mapping — page-in is lazy and the pages
/// are shareable across processes; elsewhere (and under Miri, which cannot
/// model foreign mmap memory) it falls back to an aligned heap read.
#[derive(Debug)]
struct Mapping {
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

/// Byte ranges of one parsed section's internal arrays (absolute file
/// offsets, validated 4-aligned and in-bounds at open time).
#[derive(Debug, Clone)]
struct ArenaRef {
    offsets: Range<usize>,
    bytes: Range<usize>,
}

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

#[derive(Debug, Clone, Copy)]
struct SectionMeta {
    range: (usize, usize),
    sum: u64,
}

/// A structurally validated, memory-mapped `.mkb` file.
///
/// [`Self::open`] checks structure only; [`Self::verify`] checks the
/// contents against their checksums, and [`Self::to_pair`] — the one way
/// to read a KB out of the file — verifies first.
#[derive(Debug)]
pub struct MkbFile {
    map: Mapping,
    path: PathBuf,
    dirty: bool,
    sections: Vec<SectionMeta>,
    arenas: [ArenaRef; 4], // tokens, literals, attrs, uris
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
        let lo = self.pos;
        let hi = lo + 8;
        if hi > self.end {
            return Err(corrupt(self.path, format!("{}: truncated scalar", self.what)));
        }
        self.pos = hi;
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.bytes[lo..hi]);
        Ok(u64::from_ne_bytes(b))
    }

    /// Claims `n` u32 words, returning their absolute byte range, then
    /// skips padding to the next 8-byte boundary.
    fn u32s(&mut self, n: usize) -> Result<Range<usize>, MkbError> {
        let lo = self.pos;
        let hi = lo
            .checked_add(n.checked_mul(4).ok_or_else(|| corrupt(self.path, format!("{}: count overflow", self.what)))?)
            .ok_or_else(|| corrupt(self.path, format!("{}: count overflow", self.what)))?;
        if hi > self.end {
            return Err(corrupt(self.path, format!("{}: truncated array", self.what)));
        }
        self.pos = hi + (8 - hi % 8) % 8;
        if self.pos > self.end {
            return Err(corrupt(self.path, format!("{}: truncated padding", self.what)));
        }
        Ok(lo..hi)
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

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[at..at + 4]);
    u32::from_ne_bytes(b)
}

impl MkbFile {
    /// Opens and structurally validates an `.mkb` file: magic, format
    /// version, endianness tag, section table, and every section's
    /// internal offsets/bounds — but *not* the content checksums (see
    /// [`Self::verify`]). This is the microsecond-scale open path.
    pub fn open(path: &Path) -> Result<Self, MkbError> {
        let file = File::open(path).map_err(|e| io_err(path, &e))?;
        let len = file.metadata().map_err(|e| io_err(path, &e))?.len();
        let len = usize::try_from(len).map_err(|_| corrupt(path, "file larger than address space"))?;
        if len < HEADER_LEN {
            return Err(corrupt(path, format!("file is {len} bytes, smaller than the {HEADER_LEN}-byte header")));
        }
        let map = Mapping::map(&file, len, path)?;
        let bytes = map.bytes();
        if bytes.as_ptr() as usize % 8 != 0 {
            return Err(corrupt(path, "mapping is not 8-byte aligned"));
        }

        if bytes[..8] != MKB_MAGIC {
            return Err(corrupt(path, "bad magic (not an .mkb file)"));
        }
        let version = read_u32(bytes, 8);
        let endian = read_u32(bytes, 12);
        // Check endianness before the version: on a swapped machine the
        // version word is byte-swapped too, and the tag names the real
        // problem.
        if endian != ENDIAN_TAG {
            return Err(MkbError::EndianMismatch { found: endian });
        }
        if version != MKB_FORMAT_VERSION {
            return Err(MkbError::SchemaMismatch { found: version, expected: MKB_FORMAT_VERSION });
        }
        let n_sections = read_u32(bytes, 16) as usize;
        let flags = read_u32(bytes, 20);
        if n_sections != SECTION_COUNT {
            return Err(corrupt(path, format!("expected {SECTION_COUNT} sections, found {n_sections}")));
        }
        let table_end = HEADER_LEN + n_sections * TABLE_ENTRY_LEN;
        if table_end > len {
            return Err(corrupt(path, "truncated section table"));
        }

        // Parse the table; sections must be in id order, 8-aligned, in
        // bounds.
        let mut metas = Vec::with_capacity(n_sections);
        for i in 0..n_sections {
            let at = HEADER_LEN + i * TABLE_ENTRY_LEN;
            let id = read_u32(bytes, at);
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[at + 8..at + 16]);
            let off = u64::from_ne_bytes(b) as usize;
            b.copy_from_slice(&bytes[at + 16..at + 24]);
            let slen = u64::from_ne_bytes(b) as usize;
            b.copy_from_slice(&bytes[at + 24..at + 32]);
            let sum = u64::from_ne_bytes(b);
            if id as usize != i + 1 {
                return Err(corrupt(path, format!("section {i} has id {id}, expected {}", i + 1)));
            }
            if off % 8 != 0 {
                return Err(corrupt(path, format!("section {id} offset {off} is not 8-byte aligned")));
            }
            let Some(end) = off.checked_add(slen) else {
                return Err(corrupt(path, format!("section {id} length overflows")));
            };
            if end > len {
                return Err(corrupt(path, format!("section {id} extends past end of file ({end} > {len})")));
            }
            metas.push(SectionMeta { range: (off, end), sum });
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

        let sec = |id: u32| -> SectionMeta { metas[(id - 1) as usize] };
        let cursor = |id: u32, what: &'static str| -> Cursor<'_> {
            let m = sec(id);
            Cursor { bytes, pos: m.range.0, end: m.range.1, path, what }
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

        let parse_arena = |id: u32, what: &'static str| -> Result<ArenaRef, MkbError> {
            let mut c = cursor(id, what);
            let (offsets, byte_len) = parse_offsets(&mut c, what)?;
            Ok(ArenaRef { offsets, bytes: c.raw(byte_len)? })
        };

        let parse_csr = |id: u32, what: &'static str| -> Result<CsrRef, MkbError> {
            let mut c = cursor(id, what);
            let (offsets, len) = parse_offsets(&mut c, what)?;
            Ok(CsrRef { offsets, data: c.u32s(len)? })
        };

        let parse_col = |id: u32, what: &'static str| -> Result<Range<usize>, MkbError> {
            let mut c = cursor(id, what);
            let count = c.u64()? as usize;
            c.u32s(count)
        };

        // Pairs sections: CSR offsets + attr column + value column.
        let parse_pairs = |id: u32, what: &'static str| -> Result<(CsrRef, Range<usize>), MkbError> {
            let mut c = cursor(id, what);
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
            dirty: flags & FLAG_DIRTY != 0,
            sections: metas,
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
        let bytes = self.map.bytes();
        for (i, meta) in self.sections.iter().enumerate() {
            let got = checksum(&bytes[meta.range.0..meta.range.1]);
            if got != meta.sum {
                return Err(corrupt(
                    &self.path,
                    format!("section {} checksum mismatch ({got:#018x} != {:#018x})", i + 1, meta.sum),
                ));
            }
        }
        Ok(())
    }

    // ── zero-copy typed views ──

    fn u32_view(&self, r: &Range<usize>) -> &[u32] {
        let bytes = &self.map.bytes()[r.clone()];
        debug_assert_eq!(bytes.as_ptr() as usize % 4, 0, "u32 columns are 4-byte aligned");
        // SAFETY: the range was validated 4-aligned and in-bounds at open
        // (sections start 8-aligned; every array start is a multiple of 4
        // from there), and any u32 bit pattern is valid.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u32>(), bytes.len() / 4) }
    }

    fn token_view(&self, r: &Range<usize>) -> &[TokenId] {
        let words = self.u32_view(r);
        // SAFETY: TokenId is #[repr(transparent)] over u32.
        unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<TokenId>(), words.len()) }
    }

    /// A stored offsets column and the data column it cuts into rows, as a
    /// table — every CSR-shaped section's one validator.
    fn rows<T>(&self, what: &str, offsets: &Range<usize>, data: Vec<T>) -> Result<Rows<T>, MkbError> {
        Rows::from_parts(self.u32_view(offsets).to_vec(), data)
            .map_err(|detail| corrupt(&self.path, format!("{what}: {detail}")))
    }

    /// Fully verifies the file and materializes an in-memory [`KbPair`].
    ///
    /// Materialization bypasses parsing, normalization and tokenization —
    /// the columns load directly — so the result is *identical* (not just
    /// equivalent) to the pair that was compiled: same interner order,
    /// same ids, same token sets, hence bit-identical resolution results.
    ///
    /// Beyond the checksums, every arena must be UTF-8 cut on char
    /// boundaries into distinct strings, every CSR and pairs table must
    /// start at 0 and span its columns, every id in every column must be in
    /// range, an entity's token set must ascend strictly and a side's URI
    /// column must name each URI once — blocks are counting inversions of
    /// those columns, so a repeated token would be a repeated block member
    /// and a doubled β term; anything else is [`MkbError::Corrupt`].
    pub fn to_pair(&self) -> Result<KbPair, MkbError> {
        self.verify()?;
        let path = &self.path;

        // Arenas, CSR tables and flat columns have the in-memory layout:
        // validate the columns in place, then copy them whole.
        let interner = |which: usize, what: &str| -> Result<Interner, MkbError> {
            let arena = &self.arenas[which];
            let text = std::str::from_utf8(&self.map.bytes()[arena.bytes.clone()])
                .map_err(|e| corrupt(path, format!("{what}: invalid UTF-8 at arena byte {}", e.valid_up_to())))?;
            Interner::from_parts(text.to_owned(), self.u32_view(&arena.offsets).to_vec())
                .map_err(|detail| corrupt(path, format!("{what}: {detail}")))
        };
        let tokens = interner(0, "tokens arena")?;
        let literals = interner(1, "literals arena")?;
        let attrs = interner(2, "attrs arena")?;
        let uris = interner(3, "uris arena")?;
        let [toks_len, lits_len, attrs_len, uris_len] = [&tokens, &literals, &attrs, &uris].map(|i| i.len() as u32);

        let token_rows = |csr: &CsrRef, what: &str| -> Result<Rows<TokenId>, MkbError> {
            let data = self.token_view(&csr.data);
            if data.iter().any(|t| t.0 >= toks_len) {
                return Err(corrupt(path, format!("{what}: token id out of range")));
            }
            self.rows(what, &csr.offsets, data.to_vec())
        };
        if self.literal_tokens.rows() != literals.len() {
            return Err(corrupt(path, "literal token CSR row count disagrees with literal arena"));
        }
        let literal_tokens = token_rows(&self.literal_tokens, "literal tokens")?;

        let build_side = |side: Side| -> Result<Kb, MkbError> {
            let i = side.index();
            let uri_col = self.u32_view(&self.ent_uri[i]);
            let n = uri_col.len();
            let mut named = vec![false; uris_len as usize];
            for (e, &uri) in uri_col.iter().enumerate() {
                match named.get_mut(uri as usize) {
                    None => return Err(corrupt(path, format!("{side:?} entity {e}: uri symbol out of range"))),
                    Some(named) if *named => {
                        return Err(corrupt(path, format!("{side:?} entity {e}: its uri names an earlier entity too")))
                    }
                    Some(named) => *named = true,
                }
            }
            let pair_offsets = self.u32_view(&self.pairs_offsets[i].offsets);
            let attr_col = self.u32_view(&self.pairs_offsets[i].data);
            let val_col = self.u32_view(&self.pairs_vals[i]);
            // Names the entity whose row holds pair `p`.
            let bad = |p: usize, what: &str| {
                let e = pair_offsets.partition_point(|&start| start as usize <= p).saturating_sub(1);
                corrupt(path, format!("{side:?} entity {e}: {what} out of range"))
            };
            let mut pairs = Vec::with_capacity(attr_col.len());
            for (p, (&a, &w)) in attr_col.iter().zip(val_col).enumerate() {
                if a >= attrs_len {
                    return Err(bad(p, "attr id"));
                }
                let v = match (w & REF_BIT != 0, w & !REF_BIT) {
                    (true, t) if t as usize >= n => return Err(bad(p, "ref target")),
                    (true, t) => Value::Ref(EntityId(t)),
                    (false, l) if l >= lits_len => return Err(bad(p, "literal id")),
                    (false, l) => Value::Literal(LiteralId(l)),
                };
                pairs.push((AttrId(a), v));
            }
            let pairs = self.rows(&format!("{side:?} pairs"), &self.pairs_offsets[i].offsets, pairs)?;
            let token_sets = token_rows(&self.toksets[i], &format!("{side:?} token sets"))?;
            let ascending = |set: &[TokenId]| set.iter().zip(set.iter().skip(1)).all(|(a, b)| a < b);
            if let Some(e) = token_sets.iter().position(|set| !ascending(set)) {
                return Err(corrupt(path, format!("{side:?} entity {e}: token set is not strictly ascending")));
            }
            let occ = self.u32_view(&self.tokocc[i]).to_vec();
            Ok(Kb::from_parts(uri_col.iter().map(|&uri| Symbol(uri)).collect(), pairs, token_sets, occ))
        };

        let left = build_side(Side::Left)?;
        let right = build_side(Side::Right)?;
        if self.dirty && left.len() != right.len() {
            return Err(corrupt(path, "dirty flag set but sides differ in length"));
        }
        Ok(KbPair::from_parts(tokens, literals, attrs, uris, literal_tokens, [left, right], self.dirty))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn section_range(bytes: &[u8], id: u32) -> (usize, usize) {
        let entry = HEADER_LEN + (id as usize - 1) * TABLE_ENTRY_LEN;
        let word = |at: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[at..at + 8]);
            u64::from_ne_bytes(b) as usize
        };
        (word(entry + 8), word(entry + 16))
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

        // Each edit gets its section's bytes: count u64, then the offsets
        // [0, 5, 7, 9] (literals), [0, 1, 2, 3] (literal tokens), [0, 2, 3]
        // (left pairs and left token sets) or [0, 1] (right pairs), then
        // the arena bytes "caféaaab" or the data column(s) — the left token
        // sets [0, 1 | 1] behind four bytes of padding, the left uri column
        // [0, 1] straight behind its count. A last offset that is not the
        // column's length cannot be written: `open` sizes the columns by it.
        fn put_u32(section: &mut [u8], at: usize, v: u32) {
            section[at..at + 4].copy_from_slice(&v.to_ne_bytes());
        }
        type Edit = fn(&mut [u8]);
        let cases: [(u32, Edit, &str); 11] = [
            (section::LITERALS, |s| s[8 + 4 * 4 + 3] = 0xFF, "invalid UTF-8"),
            (section::LITERALS, |s| put_u32(s, 8 + 4, 4), "UTF-8 boundaries"), // "caf\xC3" | "\xA9aa"
            (section::LITERALS, |s| s[8 + 4 * 4 + 8] = b'a', "repeats"), // "ab" becomes a second "aa"
            (section::LITERALS, |s| put_u32(s, 8, 1), "start at byte 0"),
            (section::LITERAL_TOKENS, |s| put_u32(s, 8, 1), "start at entry 0"),
            (section::LITERAL_TOKENS, |s| put_u32(s, 8 + 4 * 4, 99), "token id out of range"),
            // Entity 0 starting at pair 1 used to load with pair 0 dropped.
            (section::PAIRS_L, |s| put_u32(s, 8, 1), "Left pairs: the first row does not start at entry 0"),
            (section::PAIRS_R, |s| put_u32(s, 8, 1), "Right pairs: the first row does not start at entry 0"),
            // A repeated token is a repeated block member, i.e. a doubled β
            // term; an unsorted set breaks every merge over it.
            (section::TOKSET_L, |s| put_u32(s, 24, 1), "Left entity 0: token set is not strictly ascending"),
            (
                section::TOKSET_L,
                |s| {
                    put_u32(s, 24, 1);
                    put_u32(s, 28, 0);
                },
                "Left entity 0: token set is not strictly ascending",
            ),
            // Two entities under one URI: `entity_by_uri` would answer for
            // the later one only.
            (section::ENT_URI_L, |s| put_u32(s, 12, 0), "Left entity 1: its uri names an earlier entity too"),
        ];
        let (literals, _) = section_range(&good, section::LITERALS);
        assert_eq!(&good[literals + 8 + 4 * 4..][..9], "caféaaab".as_bytes());
        for (id, edit, expected) in cases {
            let mut bytes = good.clone();
            let entry = HEADER_LEN + (id as usize - 1) * TABLE_ENTRY_LEN;
            let (off, len) = section_range(&bytes, id);
            edit(&mut bytes[off..off + len]);
            assert_ne!(bytes, good, "{expected}: the edit must change the file");
            let sealed = checksum(&bytes[off..off + len]).to_ne_bytes();
            bytes[entry + 24..entry + 32].copy_from_slice(&sealed);
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

//! The one framing of every durable file: an `.mkb` container, a
//! checkpoint barrier and a spill run are each one *segment*.
//!
//! ```text
//! header (32 B): magic "MINOAN" · kind [u8; 2] · version u32 · endian tag u32
//!                · section count u32 · flags u32 · table checksum u64
//! table  (32 B × n): { id u32 · zero u32 · offset u64 · len u64 · checksum u64 },
//!                ids strictly ascending
//! payloads:      each at the first 8-aligned offset after the one before
//!                (the first after the table), zero bytes between; the file
//!                ends where the last payload does
//! ```
//!
//! Integers are native-endian, so a `u32` column is viewed in place from a
//! mapping; the endian tag refuses a file from a machine of the other
//! endianness, and the kind's own version an older file, before a byte of
//! it is decoded. `flags` belongs to the kind. The table checksum — the
//! [`checksum`] of the header's first 24 bytes followed by the table's
//! [`checksum`] — makes a flipped header or table byte an error at
//! [`Segment::parse`]; [`Segment::verify`] checks every payload against its
//! own. [`Writer`]'s encoders append payloads in place, into the one buffer
//! that becomes the file.

use std::fmt;
use std::ops::Range;

use crate::checksum;

/// The first six bytes of every segment.
const MAGIC: [u8; 6] = *b"MINOAN";
/// Bytes in the header.
pub const HEADER_LEN: usize = 32;
/// Bytes in one section-table entry.
pub const ENTRY_LEN: usize = 32;
const ENDIAN_TAG: u32 = 0x0102_0304;

/// What a segment holds: the two bytes after the magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kind(pub [u8; 2]);

impl Kind {
    /// A compiled KB pair (`MINOANKB`, the `.mkb` magic before segments).
    pub const MKB: Kind = Kind(*b"KB");
    /// One checkpoint barrier.
    pub const CHECKPOINT: Kind = Kind(*b"CK");
    /// One spill run.
    pub const SPILL: Kind = Kind(*b"SP");
}

/// Why a segment's bytes were refused; the file type wrapping the segment
/// adds the path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// Truncation, a bad magic or kind, a checksum or layout that fails.
    Corrupt(String),
    /// The kind's format version is not the one this build reads.
    SchemaMismatch { found: u32, expected: u32 },
    /// The file was written on a machine of the other endianness.
    EndianMismatch { found: u32 },
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Corrupt(detail) => f.write_str(detail),
            SegmentError::SchemaMismatch { found, expected } => {
                write!(f, "format version {found} (this build reads {expected})")
            }
            SegmentError::EndianMismatch { found } => {
                write!(f, "endianness tag {found:#010x} does not match this machine")
            }
        }
    }
}

impl std::error::Error for SegmentError {}

fn corrupt(detail: impl Into<String>) -> SegmentError {
    SegmentError::Corrupt(detail.into())
}

fn align8(n: usize) -> usize {
    n.saturating_add(7) & !7
}

fn u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_ne_bytes(bytes.get(at..at.checked_add(4)?)?.try_into().ok()?))
}

fn u64_at(bytes: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_ne_bytes(bytes.get(at..at.checked_add(8)?)?.try_into().ok()?))
}

/// The table checksum of `head`, a header and its table.
fn table_checksum(head: &[u8]) -> u64 {
    let mut sealed = [0u8; 32];
    sealed.iter_mut().zip(head.iter().take(24)).for_each(|(to, &from)| *to = from);
    let table = checksum(head.get(HEADER_LEN..).unwrap_or_default()).to_le_bytes();
    sealed.iter_mut().skip(24).zip(table).for_each(|(to, from)| *to = from);
    checksum(&sealed)
}

/// Builds one segment in one buffer: header and table are reserved up
/// front, each payload is encoded behind the one before, and
/// [`Self::finish`] fills the table in.
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
    kind: Kind,
    version: u32,
    flags: u32,
    slots: usize,
    sections: Vec<Section>,
}

impl Writer {
    /// A segment of `kind` at `version` with `flags`, whose table holds
    /// exactly `sections` entries.
    pub fn new(kind: Kind, version: u32, flags: u32, sections: usize) -> Self {
        let buf = vec![0; HEADER_LEN + sections * ENTRY_LEN];
        Self { buf, kind, version, flags, slots: sections, sections: Vec::with_capacity(sections) }
    }

    /// Reserves room for `additional` more payload bytes, so that a writer
    /// that knows its size grows the buffer once rather than by doubling.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Appends section `id` (ids ascending): `encode` appends the payload
    /// to the buffer it is handed, whose length is 8-aligned on entry.
    pub fn section(&mut self, id: u32, encode: impl FnOnce(&mut Vec<u8>)) {
        self.buf.resize(align8(self.buf.len()), 0);
        let offset = self.buf.len();
        encode(&mut self.buf);
        let payload = self.buf.get(offset..).unwrap_or_default();
        self.sections.push(Section { id, offset, len: payload.len(), sum: checksum(payload) });
    }

    /// The sections written so far, checksums included: the table
    /// [`Segment::parse`] reads back from the finished bytes.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// The segment's bytes; an error (a writer's bug) unless the sections
    /// written fill the table in ascending id order.
    pub fn finish(mut self) -> Result<Vec<u8>, SegmentError> {
        let ascending = self.sections.windows(2).all(|pair| matches!(pair, [a, b] if a.id < b.id));
        let count = u32::try_from(self.sections.len())
            .ok()
            .filter(|_| ascending && self.sections.len() == self.slots)
            .ok_or_else(|| corrupt("the sections written do not fill the table in ascending order"))?;
        let mut head = Vec::with_capacity(HEADER_LEN + self.slots * ENTRY_LEN);
        head.extend_from_slice(&MAGIC);
        head.extend_from_slice(&self.kind.0);
        [self.version, ENDIAN_TAG, count, self.flags].iter().for_each(|w| head.extend_from_slice(&w.to_ne_bytes()));
        head.extend_from_slice(&[0; 8]);
        for section in &self.sections {
            head.extend_from_slice(&section.id.to_ne_bytes());
            head.extend_from_slice(&[0; 4]);
            [section.offset as u64, section.len as u64, section.sum]
                .iter()
                .for_each(|w| head.extend_from_slice(&w.to_ne_bytes()));
        }
        let sum = table_checksum(&head).to_ne_bytes();
        head.get_mut(24..32).ok_or_else(|| corrupt("truncated header"))?.copy_from_slice(&sum);
        self.buf.get_mut(..head.len()).ok_or_else(|| corrupt("no room for the table"))?.copy_from_slice(&head);
        Ok(self.buf)
    }
}

/// One entry of a segment's table, checked against the file's length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Section {
    id: u32,
    offset: usize,
    len: usize,
    sum: u64,
}

impl Section {
    /// Where the payload lies in the file.
    pub fn range(&self) -> Range<usize> {
        self.offset..self.offset + self.len
    }

    /// Checks a payload — read on its own, or out of the whole file —
    /// against the section's length and checksum.
    pub fn check(&self, payload: &[u8]) -> Result<(), SegmentError> {
        if payload.len() != self.len || checksum(payload) != self.sum {
            let (id, len) = (self.id, payload.len());
            return Err(corrupt(format!("section {id} checksum mismatch ({len} bytes, the table says {})", self.len)));
        }
        Ok(())
    }
}

/// A segment's header and table, parsed and checked against the file they
/// came from; payloads stay in the caller's bytes.
#[derive(Debug, Clone)]
pub struct Segment {
    flags: u32,
    table_end: usize,
    sections: Vec<Section>,
}

impl Segment {
    /// Parses the header and table at the start of `file` (the whole file)
    /// as a segment of `kind` at `version`, and checks the payload layout
    /// against the file's length. Payload checksums are [`Self::verify`]'s.
    pub fn parse(file: &[u8], kind: Kind, version: u32) -> Result<Self, SegmentError> {
        let len = file.len();
        let header = file.get(..HEADER_LEN).ok_or_else(|| corrupt(format!("{len} bytes: no {HEADER_LEN}-byte header")))?;
        if header.get(..6) != Some(&MAGIC[..]) || header.get(6..8) != Some(&kind.0[..]) {
            return Err(corrupt(format!("bad magic: not a {:?} segment", String::from_utf8_lossy(&kind.0))));
        }
        let word = |at: usize| u32_at(header, at).unwrap_or(0);
        // The tag before the version: on a swapped machine the version is
        // byte-swapped too, and the tag names the real problem.
        if word(12) != ENDIAN_TAG {
            return Err(SegmentError::EndianMismatch { found: word(12) });
        }
        if word(8) != version {
            return Err(SegmentError::SchemaMismatch { found: word(8), expected: version });
        }
        let table_end = (word(16) as usize).saturating_mul(ENTRY_LEN).saturating_add(HEADER_LEN);
        let head = file.get(..table_end).ok_or_else(|| corrupt("truncated section table"))?;
        if u64_at(header, 24) != Some(table_checksum(head)) {
            return Err(corrupt("header or section table checksum mismatch"));
        }
        let mut sections: Vec<Section> = Vec::with_capacity(word(16) as usize);
        let mut end = table_end;
        for entry in head.get(HEADER_LEN..).unwrap_or_default().chunks_exact(ENTRY_LEN) {
            let field = |at: usize| u64_at(entry, at).and_then(|v| usize::try_from(v).ok()).unwrap_or(usize::MAX);
            let (id, offset, slen) = (u32_at(entry, 0).unwrap_or(0), field(8), field(16));
            if sections.last().is_some_and(|last| last.id >= id) || offset != align8(end) {
                return Err(corrupt(format!("section {id} is out of order or out of place")));
            }
            end = offset.checked_add(slen).filter(|&e| e <= len).ok_or_else(|| {
                corrupt(format!("section {id} ({offset}+{slen}) runs past the end of the file ({len} bytes)"))
            })?;
            sections.push(Section { id, offset, len: slen, sum: u64_at(entry, 24).unwrap_or(0) });
        }
        if end != len {
            return Err(corrupt(format!("{} bytes after the last section", len - end)));
        }
        Ok(Self { flags: word(20), table_end, sections })
    }

    /// The kind's flags word.
    pub fn flags(&self) -> u32 {
        self.flags
    }

    /// Every section, in file (= id) order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Section `id`.
    pub fn section(&self, id: u32) -> Result<&Section, SegmentError> {
        self.sections.iter().find(|s| s.id == id).ok_or_else(|| corrupt(format!("no section {id}")))
    }

    /// Section `id`'s payload in `file`, the bytes [`Self::parse`] read.
    pub fn bytes<'a>(&self, file: &'a [u8], id: u32) -> Result<&'a [u8], SegmentError> {
        file.get(self.section(id)?.range()).ok_or_else(|| corrupt(format!("section {id} lies outside the file")))
    }

    /// Checks every payload against its checksum, and the gaps between
    /// payloads are zero: a mismatch means bytes changed at rest (bit rot,
    /// a torn write, tampering).
    pub fn verify(&self, file: &[u8]) -> Result<(), SegmentError> {
        let mut end = self.table_end;
        for section in &self.sections {
            if file.get(end..section.offset).unwrap_or_default().iter().any(|&b| b != 0) {
                return Err(corrupt(format!("nonzero padding before section {}", section.id)));
            }
            section.check(file.get(section.range()).unwrap_or_default())?;
            end = section.offset + section.len;
        }
        Ok(())
    }
}

/// Computes every checksum of a segment in place from its bytes: each
/// section's, then the table's — what [`Writer`] writes. A test that edits
/// payloads reseals with it, as another writer or a forger
/// would — the checksums detect rot, not intent — to build damage only
/// the decoders can see.
pub fn seal(file: &mut [u8]) -> Result<(), SegmentError> {
    let table_end = (u32_at(file, 16).unwrap_or(0) as usize).saturating_mul(ENTRY_LEN).saturating_add(HEADER_LEN);
    for at in (HEADER_LEN..table_end).step_by(ENTRY_LEN) {
        let field = |at: usize| u64_at(file, at).and_then(|v| usize::try_from(v).ok());
        let range = field(at + 8).zip(field(at + 16)).map(|(offset, len)| offset..offset.saturating_add(len));
        let sum = range.and_then(|range| file.get(range)).map(checksum).ok_or_else(|| corrupt("bad table"))?;
        file.get_mut(at + 24..at + 32).ok_or_else(|| corrupt("bad table"))?.copy_from_slice(&sum.to_ne_bytes());
    }
    let sum = table_checksum(file.get(..table_end).ok_or_else(|| corrupt("truncated table"))?).to_ne_bytes();
    file.get_mut(24..32).ok_or_else(|| corrupt("truncated header"))?.copy_from_slice(&sum);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{for_each_seed, Rng};

    /// A segment of `kind` holding `payloads` as sections 1, 2, …
    fn segment(kind: Kind, payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut w = Writer::new(kind, 7, 0b101, payloads.len());
        for (id, payload) in (1..).zip(payloads) {
            w.section(id, |out| out.extend_from_slice(payload));
        }
        let table = w.sections().to_vec();
        let bytes = w.finish().expect("a well-formed writer");
        let parsed = Segment::parse(&bytes, kind, 7).expect("parses");
        assert_eq!(parsed.sections(), &table[..], "the writer's table is the one parsed back");
        bytes
    }

    /// Seeded payloads of lengths that leave alignment gaps, an empty one
    /// among them.
    fn payloads(rng: &mut Rng) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = (0..rng.gen_range(1..5usize))
            .map(|_| (0..rng.gen_range(0..40usize)).map(|_| rng.gen_range(0..256usize) as u8).collect())
            .collect();
        out.push(Vec::new());
        out
    }

    #[test]
    fn sections_round_trip_in_place_and_aligned() {
        let payloads = vec![b"abc".to_vec(), vec![], (0..=255u8).collect()];
        let bytes = segment(Kind::SPILL, &payloads);
        let seg = Segment::parse(&bytes, Kind::SPILL, 7).expect("parses");
        seg.verify(&bytes).expect("verifies");
        assert_eq!(seg.flags(), 0b101);
        assert_eq!(seg.sections().iter().map(|s| s.id).collect::<Vec<_>>(), [1, 2, 3]);
        for (id, payload) in (1..).zip(&payloads) {
            let section = seg.section(id).expect("present");
            assert_eq!(section.range().start % 8, 0, "section {id} is 8-aligned");
            assert_eq!(seg.bytes(&bytes, id).expect("in the file"), &payload[..]);
            section.check(payload).expect("a ranged read of the section checks");
        }
        assert!(seg.section(4).is_err());
        assert_eq!(bytes.len(), HEADER_LEN + 3 * ENTRY_LEN + 8 + 256, "no trailing padding");
    }

    #[test]
    fn a_writer_bug_is_reported_not_written() {
        let mut w = Writer::new(Kind::SPILL, 1, 0, 2);
        w.section(1, |_| {});
        assert!(w.finish().is_err(), "one section short");
        let mut w = Writer::new(Kind::SPILL, 1, 0, 2);
        w.section(2, |_| {});
        w.section(1, |_| {});
        assert!(w.finish().is_err(), "ids out of order");
    }

    #[test]
    fn kind_version_and_endianness_are_typed() {
        let bytes = segment(Kind::CHECKPOINT, &[b"x".to_vec()]);
        assert!(matches!(Segment::parse(&bytes, Kind::MKB, 7), Err(SegmentError::Corrupt(_))));
        assert_eq!(
            Segment::parse(&bytes, Kind::CHECKPOINT, 8).map(|_| ()),
            Err(SegmentError::SchemaMismatch { found: 7, expected: 8 })
        );
        let mut swapped = bytes.clone();
        swapped[12..16].reverse();
        assert!(matches!(
            Segment::parse(&swapped, Kind::CHECKPOINT, 7),
            Err(SegmentError::EndianMismatch { found: 0x0403_0201 })
        ));
    }

    /// Hostile bytes: every truncation, an appended byte and every flip of
    /// a header or table byte is a typed error at `parse`; every flipped
    /// payload byte is a checksum mismatch at `verify` (or at `check`, read
    /// on its own). Never a panic, never a section served from the wrong
    /// bytes.
    #[test]
    fn hostile_bytes_are_typed_errors() {
        for_each_seed(12, |rng| {
            for kind in [Kind::MKB, Kind::CHECKPOINT, Kind::SPILL] {
                let payloads = payloads(rng);
                let bytes = segment(kind, &payloads);
                let table_end = HEADER_LEN + payloads.len() * ENTRY_LEN;
                for keep in 0..bytes.len() {
                    assert!(Segment::parse(&bytes[..keep], kind, 7).is_err(), "{kind:?} cut to {keep}");
                }
                let longer = [&bytes[..], &[0]].concat();
                assert!(Segment::parse(&longer, kind, 7).is_err(), "{kind:?} with a byte appended");
                for at in 0..table_end {
                    let mut flipped = bytes.clone();
                    flipped[at] ^= 1 << rng.gen_range(0..8usize);
                    assert!(Segment::parse(&flipped, kind, 7).is_err(), "{kind:?} header/table byte {at}");
                }
                let seg = Segment::parse(&bytes, kind, 7).expect("intact");
                for at in table_end..bytes.len() {
                    let mut flipped = bytes.clone();
                    flipped[at] ^= 1 << rng.gen_range(0..8usize);
                    let seg = Segment::parse(&flipped, kind, 7).expect("payload flips leave the table intact");
                    match seg.verify(&flipped) {
                        Err(SegmentError::Corrupt(detail)) => {
                            assert!(detail.contains("checksum") || detail.contains("padding"), "{detail}")
                        }
                        other => panic!("{kind:?} payload byte {at}: {other:?}"),
                    }
                }
                for (id, payload) in (1..).zip(&payloads) {
                    let section = seg.section(id).expect("present");
                    if let Some(first) = payload.first() {
                        let mut damaged = payload.clone();
                        damaged[0] = first ^ 0x40;
                        assert!(section.check(&damaged).is_err(), "{kind:?} section {id} flipped");
                        assert!(section.check(&payload[1..]).is_err(), "{kind:?} section {id} short");
                    }
                }
            }
        });
    }

    #[test]
    fn seal_restores_every_checksum_after_an_edit() {
        let mut bytes = segment(Kind::MKB, &[b"abcdefgh".to_vec(), b"ij".to_vec()]);
        let at = Segment::parse(&bytes, Kind::MKB, 7).expect("intact").section(2).expect("present").range().start;
        bytes[at] = b'I';
        assert!(Segment::parse(&bytes, Kind::MKB, 7).expect("table intact").verify(&bytes).is_err());
        seal(&mut bytes).expect("reseal");
        let seg = Segment::parse(&bytes, Kind::MKB, 7).expect("parses");
        seg.verify(&bytes).expect("resealed");
        assert_eq!(seg.bytes(&bytes, 2).expect("present"), b"Ij");
    }
}

//! Binary row codec for the disk-backed execution mode, plus the
//! checksummed self-describing frame format shared by durable files.
//!
//! BigDansing-Hadoop materializes every stage to disk; the DiskBacked
//! [`ExecMode`](../..) of our dataflow engine reproduces that by encoding
//! records through this codec at each stage boundary. The format is a
//! simple length-prefixed tag/payload encoding — no serde needed, fully
//! round-trip tested.
//!
//! Anything that must survive a crash — WAL records, session snapshots,
//! spill/checkpoint files — is wrapped in a **frame**:
//!
//! ```text
//! ┌───────┬─────────┬──────┬──────┬─────────┬─────────┬───────┐
//! │ magic │ version │ kind │ rsvd │ len u64 │ payload │ crc32 │
//! │ BDFR  │ u16 LE  │ u8   │ u8=0 │ LE      │ bytes   │ LE    │
//! └───────┴─────────┴──────┴──────┴─────────┴─────────┴───────┘
//! ```
//!
//! The CRC covers everything after the magic (version, kind, reserved,
//! length, payload), so *any* single-byte flip decodes to a typed
//! [`Error::Corrupt`] — never a panic, never a silent success. The CRC
//! is checked before the version so a valid frame from a newer format
//! is rejected with an explicit version message.

use crate::{Error, Result, Tuple, Value};
use std::path::{Path, PathBuf};

/// Types that can be written to and read from a byte stream.
pub trait Codec: Sized {
    /// Append the binary encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decode a value from the front of `buf`, advancing it.
    fn decode(buf: &mut &[u8]) -> Result<Self>;
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if buf.len() < n {
        return Err(Error::Parse(format!(
            "codec underrun: wanted {n} bytes, had {}",
            buf.len()
        )));
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// Read exactly eight bytes without panicking on truncated input, so a
/// corrupt spill file surfaces as a recoverable `Error::Parse` instead
/// of a process abort.
fn take8(buf: &mut &[u8]) -> Result<[u8; 8]> {
    let b = take(buf, 8)?;
    b.try_into()
        .map_err(|_| Error::Parse("codec underrun: short 8-byte field".into()))
}

impl Codec for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok(u64::from_le_bytes(take8(buf)?))
    }
}

impl Codec for i64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok(i64::from_le_bytes(take8(buf)?))
    }
}

impl Codec for f64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok(f64::from_le_bytes(take8(buf)?))
    }
}

impl Codec for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let len = u64::decode(buf)? as usize;
        let b = take(buf, len)?;
        String::from_utf8(b.to_vec()).map_err(|e| Error::Parse(format!("codec: bad utf8: {e}")))
    }
}

impl Codec for Value {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Value::Null => buf.push(0),
            Value::Int(i) => {
                buf.push(1);
                i.encode(buf);
            }
            Value::Float(f) => {
                buf.push(2);
                f.encode(buf);
            }
            Value::Str(s) => {
                let bytes = s.as_bytes();
                buf.push(3);
                (bytes.len() as u64).encode(buf);
                buf.extend_from_slice(bytes);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let tag = take(buf, 1)?[0];
        Ok(match tag {
            0 => Value::Null,
            1 => Value::Int(i64::decode(buf)?),
            2 => Value::Float(f64::decode(buf)?),
            3 => {
                let len = u64::decode(buf)? as usize;
                let s = std::str::from_utf8(take(buf, len)?);
                Value::str(s.map_err(|e| Error::Parse(format!("codec: bad utf8: {e}")))?)
            }
            t => return Err(Error::Parse(format!("codec: bad Value tag {t}"))),
        })
    }
}

impl Codec for Tuple {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id().encode(buf);
        (self.arity() as u64).encode(buf);
        for v in self.iter_values() {
            v.encode(buf);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let id = u64::decode(buf)?;
        let n = u64::decode(buf)? as usize;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(Value::decode(buf)?);
        }
        Ok(Tuple::new(id, values))
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let n = u64::decode(buf)? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

/// Encode a batch of records into one buffer.
pub fn encode_batch<T: Codec>(items: &[T]) -> Vec<u8> {
    let mut buf = Vec::new();
    (items.len() as u64).encode(&mut buf);
    for it in items {
        it.encode(&mut buf);
    }
    buf
}

/// Decode a batch previously produced by [`encode_batch`].
pub fn decode_batch<T: Codec>(mut buf: &[u8]) -> Result<Vec<T>> {
    let buf = &mut buf;
    let n = u64::decode(buf)? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(T::decode(buf)?);
    }
    Ok(out)
}

// --- checksummed self-describing frames for durable files ---

/// First four bytes of every durable file the workspace writes.
pub const FRAME_MAGIC: [u8; 4] = *b"BDFR";

/// Current frame format version. Bumped on any layout change; decoding
/// rejects frames from a newer version with a typed error so an old
/// binary never misreads state written by a newer one.
pub const FORMAT_VERSION: u16 = 1;

/// Bytes before the payload: magic(4) + version(2) + kind(1) + rsvd(1)
/// + payload length(8).
pub const FRAME_HEADER: usize = 16;

/// Bytes after the payload (the CRC32 trailer).
pub const FRAME_TRAILER: usize = 4;

// IEEE CRC-32 (reflected, polynomial 0xEDB88320), slice-by-8: eight
// 256-entry tables let the loop fold eight input bytes per step instead
// of one. Hand rolled: the workspace deliberately carries no external
// codec deps.
const CRC32_TABLES: [[u32; 256]; 8] = build_crc32_tables();

const fn build_crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    // tables[t][i] is the CRC of byte `i` followed by `t` zero bytes.
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

/// One table lookup per byte — the tail of [`crc32`] and the reference
/// its tests compare the sliced loop against.
fn crc32_bytewise(mut c: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// IEEE CRC-32 of `bytes` (the `cksum`/zlib polynomial, reflected).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    crc32_bytewise(c, chunks.remainder()) ^ 0xFFFF_FFFF
}

/// Wrap `payload` in a checksummed frame of the current
/// [`FORMAT_VERSION`]. `kind` tags what the payload is (WAL record,
/// snapshot, …) so readers can reject a mis-filed frame.
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    encode_frame_versioned(kind, FORMAT_VERSION, payload)
}

/// [`encode_frame`] with an explicit format version — the hook for
/// forward-compatibility tests (write a "future" frame, assert the
/// current binary refuses it).
pub fn encode_frame_versioned(kind: u8, version: u16, payload: &[u8]) -> Vec<u8> {
    let mut buf = begin_frame_versioned(kind, version);
    buf.reserve(payload.len() + FRAME_TRAILER);
    buf.extend_from_slice(payload);
    finish_frame(&mut buf);
    buf
}

/// Start a frame whose payload the caller encodes straight into the
/// returned buffer (no separate payload vector to copy): the header is
/// written with the length left open, and [`finish_frame`] patches the
/// length and appends the CRC once the payload is in.
pub fn begin_frame(kind: u8) -> Vec<u8> {
    begin_frame_versioned(kind, FORMAT_VERSION)
}

fn begin_frame_versioned(kind: u8, version: u16) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_HEADER + FRAME_TRAILER);
    buf.extend_from_slice(&FRAME_MAGIC);
    buf.extend_from_slice(&version.to_le_bytes());
    buf.push(kind);
    buf.push(0);
    buf.extend_from_slice(&0u64.to_le_bytes());
    buf
}

/// Close a frame opened with [`begin_frame`]: everything after the
/// header is the payload.
pub fn finish_frame(buf: &mut Vec<u8>) {
    let len = (buf.len() - FRAME_HEADER) as u64;
    buf[8..FRAME_HEADER].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&buf[4..]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Decode one frame from the front of `buf`, advancing it past the
/// frame. Returns `(kind, payload)`. Truncation surfaces as
/// [`Error::Parse`]; a bad magic, CRC mismatch, or unsupported version
/// as [`Error::Corrupt`].
pub fn decode_frame(buf: &mut &[u8]) -> Result<(u8, Vec<u8>)> {
    decode_frame_borrowed(buf).map(|(kind, payload)| (kind, payload.to_vec()))
}

/// [`decode_frame`] without the payload copy: the returned payload
/// borrows from the input.
pub fn decode_frame_borrowed<'a>(buf: &mut &'a [u8]) -> Result<(u8, &'a [u8])> {
    let b = *buf;
    if b.len() < 4 {
        return Err(Error::Parse(format!(
            "frame underrun: wanted 4 magic bytes, had {}",
            b.len()
        )));
    }
    if b[..4] != FRAME_MAGIC {
        return Err(Error::Corrupt(format!(
            "frame: bad magic {:02x}{:02x}{:02x}{:02x}",
            b[0], b[1], b[2], b[3]
        )));
    }
    if b.len() < FRAME_HEADER {
        return Err(Error::Parse(format!(
            "frame underrun: wanted {FRAME_HEADER}-byte header, had {}",
            b.len()
        )));
    }
    let version = u16::from_le_bytes([b[4], b[5]]);
    let kind = b[6];
    let reserved = b[7];
    let len = u64::from_le_bytes(b[8..16].try_into().expect("8-byte slice")) as usize;
    let total = len
        .checked_add(FRAME_HEADER + FRAME_TRAILER)
        .ok_or_else(|| Error::Parse(format!("frame: absurd payload length {len}")))?;
    if b.len() < total {
        return Err(Error::Parse(format!(
            "frame underrun: wanted {total} bytes, had {}",
            b.len()
        )));
    }
    let stored = u32::from_le_bytes(
        b[FRAME_HEADER + len..total]
            .try_into()
            .expect("4-byte slice"),
    );
    let computed = crc32(&b[4..FRAME_HEADER + len]);
    if stored != computed {
        return Err(Error::Corrupt(format!(
            "frame: crc mismatch (stored {stored:#010x}, computed {computed:#010x})"
        )));
    }
    if version != FORMAT_VERSION {
        return Err(Error::Corrupt(format!(
            "frame: unsupported format version {version} (this build supports {FORMAT_VERSION})"
        )));
    }
    if reserved != 0 {
        return Err(Error::Corrupt(format!(
            "frame: nonzero reserved byte {reserved}"
        )));
    }
    *buf = &b[total..];
    Ok((kind, &b[FRAME_HEADER..FRAME_HEADER + len]))
}

/// The whole frames at the front of a multi-frame file, and where they
/// stop.
pub struct FrameScan<'a> {
    /// `(kind, payload)` of every frame that decoded, in file order.
    pub frames: Vec<(u8, &'a [u8])>,
    /// Byte length of the valid prefix: appends after a crash must
    /// restart here.
    pub good: usize,
    /// Why the scan stopped short of the end of the input — a torn or
    /// corrupt tail. `None` when the input is whole frames throughout.
    pub tail: Option<Error>,
}

/// Decode consecutive frames from `bytes` until the end or the first
/// frame that fails to decode. An append-only file whose last append was
/// cut short by a crash ends in exactly such a tail; whether dropping it
/// is safe is the caller's call.
pub fn scan_frames(bytes: &[u8]) -> FrameScan<'_> {
    let mut scan = FrameScan {
        frames: Vec::new(),
        good: 0,
        tail: None,
    };
    let mut cursor = bytes;
    while !cursor.is_empty() {
        match decode_frame_borrowed(&mut cursor) {
            Ok(frame) => {
                scan.frames.push(frame);
                scan.good = bytes.len() - cursor.len();
            }
            Err(e) => {
                scan.tail = Some(e);
                break;
            }
        }
    }
    scan
}

/// The temp-file sibling used for atomic writes: `<file>.tmp` next to
/// the target, so the rename stays within one filesystem.
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Best-effort fsync of `path`'s parent directory so the rename itself
/// is durable (POSIX requires a directory sync for that).
pub fn sync_parent_dir(path: &Path) {
    #[cfg(unix)]
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    #[cfg(not(unix))]
    let _ = path;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{arb, check, SplitMix64};

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: &T) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut slice = buf.as_slice();
        let back = T::decode(&mut slice).unwrap();
        assert_eq!(&back, v);
        assert!(slice.is_empty(), "trailing bytes after decode");
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(&42u64);
        roundtrip(&-7i64);
        roundtrip(&3.25f64);
        roundtrip(&"héllo".to_string());
    }

    #[test]
    fn value_roundtrips() {
        roundtrip(&Value::Null);
        roundtrip(&Value::Int(-1));
        roundtrip(&Value::Float(6.5));
        roundtrip(&Value::str("NY"));
    }

    #[test]
    fn tuple_and_pair_roundtrip() {
        let t = Tuple::new(9, vec![Value::str("a"), Value::Int(1), Value::Null]);
        roundtrip(&t);
        roundtrip(&(t.clone(), 5u64));
        roundtrip(&vec![t.clone(), t]);
    }

    #[test]
    fn batch_roundtrip() {
        let items: Vec<u64> = (0..100).collect();
        let buf = encode_batch(&items);
        assert_eq!(decode_batch::<u64>(&buf).unwrap(), items);
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = Vec::new();
        Value::str("abcdef").encode(&mut buf);
        let mut short = &buf[..buf.len() - 2];
        assert!(matches!(Value::decode(&mut short), Err(Error::Parse(_))));
        assert!(matches!(
            u64::decode(&mut &b"123"[..]),
            Err(Error::Parse(_))
        ));
        assert!(matches!(i64::decode(&mut &b"x"[..]), Err(Error::Parse(_))));
        assert!(matches!(f64::decode(&mut &b""[..]), Err(Error::Parse(_))));
    }

    #[test]
    fn bad_tag_errors() {
        let buf = [9u8];
        assert!(matches!(Value::decode(&mut &buf[..]), Err(Error::Parse(_))));
    }

    #[test]
    fn truncated_batch_is_a_parse_error_not_a_panic() {
        let items: Vec<u64> = (0..16).collect();
        let buf = encode_batch(&items);
        for cut in [0, 1, 7, buf.len() - 3, buf.len() - 1] {
            assert!(matches!(
                decode_batch::<u64>(&buf[..cut]),
                Err(Error::Parse(_))
            ));
        }
    }

    /// Null, any `i64`, any `f64` bit pattern, or any string of up to 32
    /// chars (controls and multibyte included).
    fn arb_value(g: &mut SplitMix64) -> Value {
        match g.range(0..4) {
            0 => Value::Null,
            1 => Value::Int(g.next_u64() as i64),
            2 => Value::Float(arb::f64(g)),
            _ => {
                let len = g.range(0..=32);
                Value::from((0..len).map(|_| arb::char(g)).collect::<String>())
            }
        }
    }

    #[test]
    fn tuple_roundtrip_prop() {
        check(256, |g| {
            let id = g.next_u64();
            let vals = (0..g.range(0..8)).map(|_| arb_value(g)).collect();
            let t = Tuple::new(id, vals);
            let mut buf = Vec::new();
            t.encode(&mut buf);
            let back = Tuple::decode(&mut buf.as_slice()).unwrap();
            assert_eq!(back.id(), t.id());
            // NaN-safe comparison via total-order Eq on Value
            assert_eq!(back.to_values(), t.to_values());
        });
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_loop() {
        let bytewise = |bytes: &[u8]| crc32_bytewise(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF;
        // splitmix64 bytes: every length 0..64 (all tail sizes, every
        // alignment of the 8-byte step) and random lengths up to 4k
        let mut g = SplitMix64::new(0x5EED);
        let mut next = move || g.next_u64();
        let lengths: Vec<usize> = (0..64)
            .chain((0..64).map(|_| (next() % 4096) as usize))
            .collect();
        for len in lengths {
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&bytes), bytewise(&bytes), "length {len}");
        }
        // the frame fixtures the other tests use
        for payload in [
            &b"hello durable world"[..],
            b"payload bytes under test",
            b"",
        ] {
            let frame = encode_frame(2, payload);
            let body = &frame[4..frame.len() - FRAME_TRAILER];
            let stored = u32::from_le_bytes(frame[frame.len() - 4..].try_into().unwrap());
            assert_eq!(stored, bytewise(body));
        }
    }

    #[test]
    fn begin_and_finish_frame_equal_encode_frame() {
        let mut buf = begin_frame(5);
        buf.extend_from_slice(b"encoded in place");
        finish_frame(&mut buf);
        assert_eq!(buf, encode_frame(5, b"encoded in place"));
    }

    #[test]
    fn scan_frames_stops_at_a_torn_tail() {
        let mut file = encode_frame(1, b"one");
        file.extend_from_slice(&encode_frame(2, b"two"));
        let whole = file.len();
        let scan = scan_frames(&file);
        assert_eq!(scan.frames, vec![(1, &b"one"[..]), (2, &b"two"[..])]);
        assert_eq!(scan.good, whole);
        assert!(scan.tail.is_none());
        let third = encode_frame(3, b"three");
        file.extend_from_slice(&third[..third.len() / 2]);
        let scan = scan_frames(&file);
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.good, whole);
        assert!(matches!(scan.tail, Some(Error::Parse(_))));
        assert!(scan_frames(&[]).frames.is_empty());
    }

    #[test]
    fn frame_roundtrips_and_advances() {
        let payload = b"hello durable world".to_vec();
        let mut frame = encode_frame(7, &payload);
        frame.extend_from_slice(b"next frame starts here");
        let mut slice = frame.as_slice();
        let (kind, body) = decode_frame(&mut slice).unwrap();
        assert_eq!(kind, 7);
        assert_eq!(body, payload);
        assert_eq!(slice, b"next frame starts here");
        // empty payloads frame fine too
        let empty = encode_frame(1, &[]);
        let (k, b) = decode_frame(&mut empty.as_slice()).unwrap();
        assert_eq!((k, b.len()), (1, 0));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let frame = encode_frame(2, b"payload bytes under test");
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            let res = decode_frame(&mut bad.as_slice());
            assert!(
                matches!(res, Err(Error::Corrupt(_)) | Err(Error::Parse(_))),
                "flip at byte {i} must surface as a typed error, got {res:?}"
            );
        }
    }

    #[test]
    fn truncated_frame_is_a_parse_error() {
        let frame = encode_frame(2, b"some payload");
        for cut in 0..frame.len() {
            let res = decode_frame(&mut &frame[..cut]);
            assert!(
                matches!(res, Err(Error::Parse(_)) | Err(Error::Corrupt(_))),
                "truncation at {cut} must error, got {res:?}"
            );
        }
    }

    #[test]
    fn newer_format_version_is_rejected_by_name() {
        let frame = encode_frame_versioned(2, FORMAT_VERSION + 1, b"from the future");
        let err = decode_frame(&mut frame.as_slice()).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, Error::Corrupt(_)), "{msg}");
        assert!(msg.contains("version"), "{msg}");
    }
}

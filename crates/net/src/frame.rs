//! Length-prefixed framing for socket transports.
//!
//! A frame is `[kind: u8][bit_len: u64 BE][payload: ⌈bit_len/8⌉ bytes]`.
//! The header carries the payload's *bit* length — not its byte length —
//! because the wire encoding ([`crate::wire`]) is bit-granular and the
//! paper's communication metric counts bits; a socket transport charges
//! exactly the `bit_len` it framed, so its accounting is bit-identical to
//! the in-process simulation by construction.
//!
//! Framing is written against `std::io::{Read, Write}` so the hardening
//! tests (partial reads, truncation, oversized headers) run against
//! in-memory streams; the TCP backend ([`crate::tcp`]) reuses it verbatim
//! over `TcpStream`s.

use crate::{NetError, Result};
use std::io::{IoSlice, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

/// Frame kind: one encoded protocol [`crate::messages::Message`].
pub const FRAME_MSG: u8 = 1;
/// Frame kind: connection handshake (see [`crate::tcp`]).
pub const FRAME_HELLO: u8 = 2;
/// Frame kind: end-of-run digest exchange (see [`crate::tcp::RunDigest`]).
pub const FRAME_FIN: u8 = 3;
/// Frame kind: one encoded protocol [`crate::protocol::Command`]
/// (server → source, server-driven protocol).
pub const FRAME_CMD: u8 = 4;
/// Frame kind: one encoded protocol [`crate::protocol::Response`]
/// (source → server, server-driven protocol).
pub const FRAME_RESP: u8 = 5;

/// Upper bound on a frame's payload bit length (8 GiB of payload). A
/// header claiming more is rejected *before* any allocation — garbage or
/// a malicious peer cannot make the receiver reserve absurd buffers.
pub const MAX_FRAME_BITS: u64 = 1 << 36;

fn io_err(context: &'static str, e: std::io::Error) -> NetError {
    NetError::Transport {
        context,
        detail: e.to_string(),
    }
}

/// Frames whose header and payload left in a *single* write call (a
/// `writev` on a socket). Each one is a syscall the old two-`write_all`
/// path would have spent twice on; the bench harness records the delta
/// as its `syscalls_avoided` counter.
static SINGLE_WRITE_FRAMES: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of frames written header+payload in one write
/// call since startup (see [`write_frame`]).
pub fn single_write_frames() -> u64 {
    SINGLE_WRITE_FRAMES.load(Ordering::Relaxed)
}

/// Records a frame that left in a single write call through a path
/// other than [`write_frame`] (the event server writes pre-framed
/// buffers directly).
pub(crate) fn note_single_write_frame() {
    SINGLE_WRITE_FRAMES.fetch_add(1, Ordering::Relaxed);
}

fn check_lengths(payload: &[u8], bit_len: usize) -> Result<()> {
    if bit_len as u64 > MAX_FRAME_BITS {
        return Err(NetError::Transport {
            context: "frame write",
            detail: format!("payload of {bit_len} bits exceeds the {MAX_FRAME_BITS}-bit cap"),
        });
    }
    if payload.len() != bit_len.div_ceil(8) {
        return Err(NetError::Transport {
            context: "frame write",
            detail: format!(
                "payload of {} bytes inconsistent with bit length {bit_len}",
                payload.len()
            ),
        });
    }
    Ok(())
}

fn encode_header(kind: u8, bit_len: usize) -> [u8; 9] {
    let mut header = [0u8; 9];
    header[0] = kind;
    header[1..].copy_from_slice(&(bit_len as u64).to_be_bytes());
    header
}

/// Writes one frame and flushes the stream.
///
/// Header and payload go out through `write_vectored`, so a socket sees
/// one `writev` per frame instead of the former two `write` syscalls
/// (short writes and `Interrupted` are retried until the frame is out).
/// Validation happens before any byte is written: a rejected frame
/// leaves the stream untouched.
///
/// # Errors
///
/// * [`NetError::Transport`] if `bit_len` exceeds [`MAX_FRAME_BITS`], if
///   `payload` is not exactly `⌈bit_len/8⌉` bytes, or on I/O failure.
pub fn write_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8], bit_len: usize) -> Result<()> {
    check_lengths(payload, bit_len)?;
    let header = encode_header(kind, bit_len);
    let total = header.len() + payload.len();
    let mut written = 0;
    while written < total {
        let res = if written < header.len() {
            w.write_vectored(&[IoSlice::new(&header[written..]), IoSlice::new(payload)])
        } else {
            w.write(&payload[written - header.len()..])
        };
        match res {
            Ok(0) => {
                return Err(NetError::Transport {
                    context: "frame write",
                    detail: "stream closed mid-frame".to_string(),
                })
            }
            Ok(n) => {
                if written == 0 && n == total && !payload.is_empty() {
                    SINGLE_WRITE_FRAMES.fetch_add(1, Ordering::Relaxed);
                }
                written += n;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err("frame write", e)),
        }
    }
    w.flush().map_err(|e| io_err("frame flush", e))?;
    Ok(())
}

/// A frame encoded once into one contiguous header+payload buffer:
/// build it for a broadcast, write the same bytes to every connection
/// with a single write call each, no per-recipient re-encode or
/// allocation (see [`crate::protocol::EncodedCommand`]).
#[derive(Debug, Clone)]
pub struct FrameBuf {
    bytes: Vec<u8>,
}

impl FrameBuf {
    /// Encodes `payload` under `kind`, validating exactly like
    /// [`write_frame`].
    ///
    /// # Errors
    ///
    /// [`NetError::Transport`] if `bit_len` exceeds [`MAX_FRAME_BITS`]
    /// or `payload` is not exactly `⌈bit_len/8⌉` bytes.
    pub fn new(kind: u8, payload: &[u8], bit_len: usize) -> Result<FrameBuf> {
        check_lengths(payload, bit_len)?;
        let mut bytes = Vec::with_capacity(9 + payload.len());
        bytes.extend_from_slice(&encode_header(kind, bit_len));
        bytes.extend_from_slice(payload);
        Ok(FrameBuf { bytes })
    }

    /// The wire bytes: 9-byte header followed by the payload.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The payload bytes alone (what [`write_frame`] was given).
    pub fn payload(&self) -> &[u8] {
        &self.bytes[9..]
    }

    /// The frame kind byte.
    pub fn kind(&self) -> u8 {
        self.bytes[0]
    }
}

/// Reassembles frames from a non-blocking byte stream through a
/// reusable ring buffer.
///
/// The event backend's old path accumulated bytes in a `Vec` and
/// `drain`ed each completed frame — an O(buffered) memmove per frame,
/// plus repeated reallocation as rounds alternated between fat and thin
/// payloads. The assembler reads *directly into* its ring storage
/// ([`spare`](FrameAssembler::spare) / [`commit`](FrameAssembler::commit)),
/// consumes parsed frames by advancing an index, and keeps its capacity
/// across rounds.
#[derive(Debug)]
pub struct FrameAssembler {
    buf: Box<[u8]>,
    head: usize,
    len: usize,
}

impl Default for FrameAssembler {
    fn default() -> FrameAssembler {
        FrameAssembler::new()
    }
}

impl FrameAssembler {
    const MIN_CAP: usize = 4096;

    /// An empty assembler with the minimum capacity.
    pub fn new() -> FrameAssembler {
        FrameAssembler {
            buf: vec![0u8; Self::MIN_CAP].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    /// Bytes currently buffered (parsed frames are consumed eagerly).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn mask(&self) -> usize {
        self.buf.len() - 1
    }

    fn grow(&mut self, needed: usize) {
        let new_cap = needed.next_power_of_two().max(Self::MIN_CAP);
        let mut new_buf = vec![0u8; new_cap].into_boxed_slice();
        self.copy_out(0, &mut new_buf[..self.len]);
        self.buf = new_buf;
        self.head = 0;
    }

    /// A contiguous writable slice at the tail, at least one byte long
    /// (growing the ring if it is full). Read into it, then
    /// [`commit`](FrameAssembler::commit) the byte count; a wrapped
    /// spare region is surfaced across successive calls, so callers
    /// just loop read→commit until the source runs dry.
    pub fn spare(&mut self) -> &mut [u8] {
        if self.len == self.buf.len() {
            self.grow(self.len + 1);
        }
        let tail = (self.head + self.len) & self.mask();
        if tail >= self.head {
            // Unwrapped data: spare runs from the tail to the end of
            // storage (a second region before `head` surfaces on the
            // next call, once this one fills).
            &mut self.buf[tail..]
        } else {
            // Wrapped data: the single spare region sits between the
            // tail and the head.
            &mut self.buf[tail..self.head]
        }
    }

    /// Marks `n` bytes of the last [`spare`](FrameAssembler::spare)
    /// slice as filled.
    pub fn commit(&mut self, n: usize) {
        debug_assert!(self.len + n <= self.buf.len());
        self.len += n;
    }

    fn copy_out(&self, offset: usize, dst: &mut [u8]) {
        debug_assert!(offset + dst.len() <= self.len);
        let cap = self.buf.len();
        let start = (self.head + offset) & (cap - 1);
        let first = dst.len().min(cap - start);
        dst[..first].copy_from_slice(&self.buf[start..start + first]);
        if first < dst.len() {
            let rest = dst.len() - first;
            dst[first..].copy_from_slice(&self.buf[..rest]);
        }
    }

    fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.len);
        self.head = (self.head + n) & self.mask();
        self.len -= n;
        if self.len == 0 {
            // Empty ring: restart at 0 so the next frame lands
            // contiguously.
            self.head = 0;
        }
    }

    /// Extracts the next complete frame, if one is fully buffered,
    /// returning `(kind, payload, bit_len)` like [`read_frame`].
    ///
    /// # Errors
    ///
    /// [`NetError::Transport`] if the buffered header claims more than
    /// [`MAX_FRAME_BITS`] — detected from the header alone, before the
    /// payload arrives or anything is allocated.
    pub fn next_frame(&mut self) -> Result<Option<(u8, Vec<u8>, usize)>> {
        if self.len < 9 {
            return Ok(None);
        }
        let mut header = [0u8; 9];
        self.copy_out(0, &mut header);
        let kind = header[0];
        let bit_len = u64::from_be_bytes(header[1..].try_into().expect("8-byte slice"));
        if bit_len > MAX_FRAME_BITS {
            return Err(NetError::Transport {
                context: "frame header read",
                detail: format!(
                    "oversized frame: {bit_len} bits exceeds the {MAX_FRAME_BITS}-bit cap"
                ),
            });
        }
        let payload_len = (bit_len as usize).div_ceil(8);
        if self.len < 9 + payload_len {
            return Ok(None);
        }
        let mut payload = vec![0u8; payload_len];
        self.copy_out(9, &mut payload);
        self.consume(9 + payload_len);
        Ok(Some((kind, payload, bit_len as usize)))
    }
}

/// Reads one frame, returning `(kind, payload, bit_len)`.
///
/// Uses `read_exact`, so partial reads (a slow socket delivering one byte
/// at a time) are handled; a stream that ends mid-header or mid-payload
/// surfaces as a truncation error rather than a short buffer.
///
/// # Errors
///
/// [`NetError::Transport`] on truncation, I/O failure, or a header
/// claiming more than [`MAX_FRAME_BITS`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<(u8, Vec<u8>, usize)> {
    let mut header = [0u8; 9];
    r.read_exact(&mut header)
        .map_err(|e| io_err("frame header read", e))?;
    read_body(r, header)
}

/// Up-front reservation cap of [`read_body`]: a payload larger than this
/// grows its buffer only as its bytes arrive.
const PAYLOAD_RESERVE: usize = 1 << 20;

/// Checks a frame header and reads the payload it declares, returning
/// `(kind, payload, bit_len)`.
///
/// The buffer reserves at most [`PAYLOAD_RESERVE`] bytes before the first
/// payload byte arrives and grows only with the bytes received, so a
/// header declaring up to [`MAX_FRAME_BITS`] followed by a short stream
/// costs what the stream delivered, not what the header claimed.
fn read_body<R: Read>(r: &mut R, header: [u8; 9]) -> Result<(u8, Vec<u8>, usize)> {
    let kind = header[0];
    let bit_len = u64::from_be_bytes(header[1..].try_into().expect("8-byte slice"));
    if bit_len > MAX_FRAME_BITS {
        return Err(NetError::Transport {
            context: "frame header read",
            detail: format!("oversized frame: {bit_len} bits exceeds the {MAX_FRAME_BITS}-bit cap"),
        });
    }
    let len = (bit_len as usize).div_ceil(8);
    let mut payload = Vec::with_capacity(len.min(PAYLOAD_RESERVE));
    let got = r
        .take(len as u64)
        .read_to_end(&mut payload)
        .map_err(|e| io_err("frame payload read (truncated frame?)", e))?;
    if got < len {
        return Err(NetError::Transport {
            context: "frame payload read (truncated frame?)",
            detail: format!("stream ended {got} bytes into a {len}-byte payload"),
        });
    }
    Ok((kind, payload, bit_len as usize))
}

/// Reads one frame like [`read_frame`], but distinguishes a *clean* end
/// of stream (zero bytes available at a frame boundary → `Ok(None)`)
/// from a *torn* frame (stream ends mid-header or mid-payload → typed
/// [`NetError::Transport`]).
///
/// This is what journal readers use: a journal that ends exactly between
/// records is complete, one that ends inside a record was truncated by a
/// crash mid-append.
///
/// # Errors
///
/// [`NetError::Transport`] on a torn frame, I/O failure, or a header
/// claiming more than [`MAX_FRAME_BITS`].
pub fn try_read_frame<R: Read>(r: &mut R) -> Result<Option<(u8, Vec<u8>, usize)>> {
    let mut header = [0u8; 9];
    let mut filled = 0;
    while filled < header.len() {
        let n = r
            .read(&mut header[filled..])
            .map_err(|e| io_err("frame header read", e))?;
        if n == 0 {
            if filled == 0 {
                return Ok(None); // clean boundary
            }
            return Err(NetError::Transport {
                context: "frame header read",
                detail: format!("stream ended {filled} bytes into a 9-byte frame header"),
            });
        }
        filled += n;
    }
    read_body(r, header).map(Some)
}

/// Reads one frame and checks its kind.
///
/// # Errors
///
/// See [`read_frame`]; additionally [`NetError::Transport`] if the frame
/// kind differs from `expected`.
pub fn expect_frame<R: Read>(r: &mut R, expected: u8) -> Result<(Vec<u8>, usize)> {
    let (kind, payload, bits) = read_frame(r)?;
    if kind != expected {
        return Err(NetError::Transport {
            context: "frame kind check",
            detail: format!("expected frame kind {expected}, got {kind}"),
        });
    }
    Ok((payload, bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A reader that delivers at most one byte per `read` call — the
    /// worst-case partial-read behavior a socket can exhibit.
    struct Trickle<R>(R);

    impl<R: Read> Read for Trickle<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_MSG, &[0xAB, 0xC0], 11).unwrap();
        let (kind, payload, bits) = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(kind, FRAME_MSG);
        assert_eq!(payload, vec![0xAB, 0xC0]);
        assert_eq!(bits, 11);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_FIN, &[], 0).unwrap();
        let (kind, payload, bits) = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!((kind, bits), (FRAME_FIN, 0));
        assert!(payload.is_empty());
    }

    #[test]
    fn partial_reads_are_reassembled() {
        let mut buf = Vec::new();
        let payload: Vec<u8> = (0..=255).collect();
        write_frame(&mut buf, FRAME_MSG, &payload, 256 * 8).unwrap();
        let mut r = Trickle(Cursor::new(&buf));
        let (kind, got, bits) = read_frame(&mut r).unwrap();
        assert_eq!(kind, FRAME_MSG);
        assert_eq!(got, payload);
        assert_eq!(bits, 256 * 8);
    }

    #[test]
    fn truncated_header_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_MSG, &[1, 2, 3], 24).unwrap();
        for cut in [0, 1, 8] {
            let err = read_frame(&mut Cursor::new(&buf[..cut])).unwrap_err();
            assert!(matches!(err, NetError::Transport { .. }), "cut={cut}");
        }
    }

    #[test]
    fn truncated_payload_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_MSG, &[1, 2, 3, 4], 32).unwrap();
        let err = read_frame(&mut Cursor::new(&buf[..buf.len() - 2])).unwrap_err();
        assert!(matches!(err, NetError::Transport { .. }));
        // Truncation through a trickling reader is detected too.
        let err = read_frame(&mut Trickle(Cursor::new(&buf[..buf.len() - 1]))).unwrap_err();
        assert!(matches!(err, NetError::Transport { .. }));
    }

    #[test]
    fn oversized_header_rejected_without_allocating() {
        let mut buf = vec![FRAME_MSG];
        buf.extend_from_slice(&u64::MAX.to_be_bytes());
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        match err {
            NetError::Transport { detail, .. } => assert!(detail.contains("oversized")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn huge_declared_payload_ending_early_is_a_typed_error() {
        // A header declaring the largest legal payload, then 16 bytes,
        // then EOF: a truncation error, with no 8 GiB buffer reserved.
        let mut buf = vec![FRAME_MSG];
        buf.extend_from_slice(&MAX_FRAME_BITS.to_be_bytes());
        buf.extend_from_slice(&[0xA5; 16]);
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        match err {
            NetError::Transport { detail, .. } => assert!(detail.contains("16 bytes"), "{detail}"),
            other => panic!("unexpected {other:?}"),
        }
        let err = try_read_frame(&mut Trickle(Cursor::new(&buf))).unwrap_err();
        assert!(matches!(err, NetError::Transport { .. }));
    }

    #[test]
    fn write_rejects_inconsistent_lengths() {
        let mut buf = Vec::new();
        assert!(write_frame(&mut buf, FRAME_MSG, &[1, 2], 24).is_err());
        assert!(write_frame(&mut buf, FRAME_MSG, &[1], (MAX_FRAME_BITS + 1) as usize).is_err());
        assert!(buf.is_empty(), "nothing written on rejection");
    }

    #[test]
    fn try_read_frame_distinguishes_clean_eof_from_torn_frames() {
        // Clean boundary: zero frames, then one frame, then Ok(None).
        assert!(try_read_frame(&mut Cursor::new(&[] as &[u8]))
            .unwrap()
            .is_none());
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_MSG, &[1, 2, 3], 24).unwrap();
        let mut cur = Cursor::new(&buf);
        let (kind, payload, bits) = try_read_frame(&mut cur).unwrap().unwrap();
        assert_eq!((kind, payload, bits), (FRAME_MSG, vec![1, 2, 3], 24));
        assert!(try_read_frame(&mut cur).unwrap().is_none());

        // Torn header and torn payload are typed errors, not Ok(None).
        for cut in [1, 8, 10] {
            let err = try_read_frame(&mut Cursor::new(&buf[..cut])).unwrap_err();
            assert!(matches!(err, NetError::Transport { .. }), "cut={cut}");
        }
        // Torn frames delivered a byte at a time are detected too.
        let err = try_read_frame(&mut Trickle(Cursor::new(&buf[..5]))).unwrap_err();
        assert!(matches!(err, NetError::Transport { .. }));
    }

    #[test]
    fn frame_buf_matches_write_frame_bytes() {
        let payload = [0xAB, 0xC0];
        let mut streamed = Vec::new();
        write_frame(&mut streamed, FRAME_MSG, &payload, 11).unwrap();
        let fb = FrameBuf::new(FRAME_MSG, &payload, 11).unwrap();
        assert_eq!(fb.bytes(), &streamed[..]);
        assert_eq!(fb.payload(), &payload);
        assert_eq!(fb.kind(), FRAME_MSG);
        // Same validation as the streaming writer.
        assert!(FrameBuf::new(FRAME_MSG, &payload, 24).is_err());
        assert!(FrameBuf::new(FRAME_MSG, &[1], (MAX_FRAME_BITS + 1) as usize).is_err());
    }

    #[test]
    fn single_write_counter_advances_on_vectored_frames() {
        let before = single_write_frames();
        let mut buf = Vec::new();
        // Vec's write_vectored appends every slice in one call, so this
        // counts as a single-write frame, exactly like a socket writev.
        write_frame(&mut buf, FRAME_MSG, &[1, 2, 3], 24).unwrap();
        assert!(single_write_frames() > before);
    }

    #[test]
    fn assembler_reassembles_one_byte_at_a_time() {
        let mut wire = Vec::new();
        let payload: Vec<u8> = (0..=255).collect();
        write_frame(&mut wire, FRAME_MSG, &payload, 256 * 8).unwrap();
        let mut asm = FrameAssembler::new();
        for (i, &byte) in wire.iter().enumerate() {
            assert!(
                asm.next_frame().unwrap().is_none(),
                "frame complete {i} bytes early"
            );
            asm.spare()[0] = byte;
            asm.commit(1);
        }
        let (kind, got, bits) = asm.next_frame().unwrap().expect("complete");
        assert_eq!((kind, bits), (FRAME_MSG, 256 * 8));
        assert_eq!(got, payload);
        assert!(asm.is_empty());
    }

    #[test]
    fn assembler_wraps_and_grows_across_many_frames() {
        // Frames sized to never divide the ring capacity force the
        // head through every wrap offset; a jumbo frame forces growth.
        let mut asm = FrameAssembler::new();
        let push = |asm: &mut FrameAssembler, bytes: &[u8]| {
            let mut off = 0;
            while off < bytes.len() {
                let spare = asm.spare();
                let n = spare.len().min(bytes.len() - off);
                spare[..n].copy_from_slice(&bytes[off..off + n]);
                asm.commit(n);
                off += n;
            }
        };
        for round in 0..200u32 {
            let payload: Vec<u8> = (0..37 + (round % 13) as usize)
                .map(|i| (i as u32 ^ round) as u8)
                .collect();
            let mut wire = Vec::new();
            write_frame(&mut wire, FRAME_MSG, &payload, payload.len() * 8).unwrap();
            push(&mut asm, &wire);
            let (kind, got, bits) = asm.next_frame().unwrap().expect("complete");
            assert_eq!(
                (kind, bits),
                (FRAME_MSG, payload.len() * 8),
                "round {round}"
            );
            assert_eq!(got, payload, "round {round}");
        }
        let jumbo: Vec<u8> = (0..64 * 1024).map(|i| i as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, FRAME_MSG, &jumbo, jumbo.len() * 8).unwrap();
        push(&mut asm, &wire);
        let (_, got, _) = asm.next_frame().unwrap().expect("complete");
        assert_eq!(got, jumbo);
        assert!(asm.next_frame().unwrap().is_none());
    }

    #[test]
    fn assembler_rejects_oversized_header_before_payload() {
        let mut asm = FrameAssembler::new();
        let mut header = vec![FRAME_MSG];
        header.extend_from_slice(&u64::MAX.to_be_bytes());
        asm.spare()[..9].copy_from_slice(&header);
        asm.commit(9);
        let err = asm.next_frame().unwrap_err();
        match err {
            NetError::Transport { detail, .. } => assert!(detail.contains("oversized")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn expect_frame_checks_kind() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_HELLO, &[7], 8).unwrap();
        assert!(expect_frame(&mut Cursor::new(&buf), FRAME_MSG).is_err());
        let (payload, bits) = expect_frame(&mut Cursor::new(&buf), FRAME_HELLO).unwrap();
        assert_eq!((payload, bits), (vec![7], 8));
    }
}

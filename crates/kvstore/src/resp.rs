//! RESP (REdis Serialization Protocol) codec.
//!
//! The paper drives Redis with memtier_benchmark, which speaks RESP over
//! TCP. This module is the wire layer for the reproduction's servers: the
//! in-place request parser ([`RecvBuf`]), the reply writer ([`ReplyBuf`]),
//! and [`RespValue`], the owned form clients and tests encode commands and
//! decode replies with. What the commands *are* lives in
//! [`crate::command`].

use std::collections::VecDeque;
use std::io::Write as _;

/// Commands with at most this many arguments dispatch from a stack array
/// of borrowed slices — no per-command allocation on the hot path.
pub const MAX_INLINE_ARGS: usize = 8;

/// A RESP protocol value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RespValue {
    /// `+OK\r\n`
    Simple(String),
    /// `-ERR ...\r\n`
    Error(String),
    /// `:42\r\n`
    Integer(i64),
    /// `$5\r\nhello\r\n`; `None` is the null bulk string `$-1\r\n`.
    Bulk(Option<Vec<u8>>),
    /// `*2\r\n...`
    Array(Vec<RespValue>),
}

impl RespValue {
    /// Serializes to the wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            RespValue::Simple(s) => {
                out.push(b'+');
                out.extend_from_slice(s.as_bytes());
                out.extend_from_slice(b"\r\n");
            }
            RespValue::Error(s) => {
                out.push(b'-');
                out.extend_from_slice(s.as_bytes());
                out.extend_from_slice(b"\r\n");
            }
            RespValue::Integer(v) => {
                out.push(b':');
                out.extend_from_slice(v.to_string().as_bytes());
                out.extend_from_slice(b"\r\n");
            }
            RespValue::Bulk(None) => out.extend_from_slice(b"$-1\r\n"),
            RespValue::Bulk(Some(data)) => {
                out.push(b'$');
                out.extend_from_slice(data.len().to_string().as_bytes());
                out.extend_from_slice(b"\r\n");
                out.extend_from_slice(data);
                out.extend_from_slice(b"\r\n");
            }
            RespValue::Array(items) => {
                out.push(b'*');
                out.extend_from_slice(items.len().to_string().as_bytes());
                out.extend_from_slice(b"\r\n");
                for item in items {
                    item.encode_into(out);
                }
            }
        }
    }

    /// Parses one value from the front of `input`, returning it and the
    /// bytes consumed. `None` means the input is incomplete (wait for more
    /// bytes, as a socket reader would).
    ///
    /// Malformed input yields a `RespValue::Error` describing the problem
    /// (consuming one byte) so a stream never wedges.
    pub fn decode(input: &[u8]) -> Option<(RespValue, usize)> {
        fn find_crlf(input: &[u8], from: usize) -> Option<usize> {
            input[from..]
                .windows(2)
                .position(|w| w == b"\r\n")
                .map(|p| from + p)
        }
        let first = *input.first()?;
        let line_end = find_crlf(input, 1)?;
        let line = &input[1..line_end];
        let consumed_line = line_end + 2;
        let text = std::str::from_utf8(line).ok();
        match first {
            b'+' => Some((RespValue::Simple(text?.to_string()), consumed_line)),
            b'-' => Some((RespValue::Error(text?.to_string()), consumed_line)),
            b':' => match text.and_then(|t| t.parse().ok()) {
                Some(v) => Some((RespValue::Integer(v), consumed_line)),
                None => Some((RespValue::Error("bad integer".into()), 1)),
            },
            b'$' => {
                let len: i64 = match text.and_then(|t| t.parse().ok()) {
                    Some(v) => v,
                    None => return Some((RespValue::Error("bad bulk length".into()), 1)),
                };
                if len < 0 {
                    return Some((RespValue::Bulk(None), consumed_line));
                }
                let len = len as usize;
                if input.len() < consumed_line + len + 2 {
                    return None;
                }
                let data = input[consumed_line..consumed_line + len].to_vec();
                Some((RespValue::Bulk(Some(data)), consumed_line + len + 2))
            }
            b'*' => {
                let n: i64 = match text.and_then(|t| t.parse().ok()) {
                    Some(v) => v,
                    None => return Some((RespValue::Error("bad array length".into()), 1)),
                };
                if n < 0 {
                    return Some((RespValue::Array(Vec::new()), consumed_line));
                }
                let mut items = Vec::with_capacity(n as usize);
                let mut at = consumed_line;
                for _ in 0..n {
                    let (item, used) = RespValue::decode(&input[at..])?;
                    items.push(item);
                    at += used;
                }
                Some((RespValue::Array(items), at))
            }
            _ => Some((RespValue::Error("bad type byte".into()), 1)),
        }
    }
}

/// Encodes a client command as a RESP array of bulk strings.
pub fn encode_command(parts: &[&[u8]]) -> Vec<u8> {
    RespValue::Array(
        parts
            .iter()
            .map(|p| RespValue::Bulk(Some(p.to_vec())))
            .collect(),
    )
    .encode()
}

/// An incremental receive buffer: bytes arrive in arbitrary chunks (as
/// from a socket), complete commands are parsed in place, and argument
/// slices borrow the buffer — no per-command copies of keys or values.
///
/// Usage is two-phase to keep the borrows honest: [`RecvBuf::parse_command`]
/// fills a caller-owned vector of `(offset, len)` ranges and reports how
/// many bytes the frame spans; the caller resolves ranges to slices with
/// [`RecvBuf::arg`], executes, and only then calls [`RecvBuf::consume`].
#[derive(Default)]
pub struct RecvBuf {
    buf: Vec<u8>,
    start: usize,
}

/// Outcome of parsing one command frame from the front of a [`RecvBuf`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parsed {
    /// A complete `*N` array of bulk strings spanning `used` bytes; the
    /// argument ranges were written into the caller's vector.
    Cmd {
        /// Total frame length, to pass to [`RecvBuf::consume`].
        used: usize,
    },
    /// No complete frame yet — wait for more bytes.
    Incomplete,
    /// Malformed input: reply `-ERR msg` and [`RecvBuf::consume`] `used`
    /// bytes so the stream never wedges.
    Error {
        /// Bytes to skip past the malformed prefix.
        used: usize,
        /// What was wrong, without the `ERR ` prefix.
        msg: &'static str,
    },
}

/// Commands longer than this are rejected rather than buffered forever.
const MAX_COMMAND_ARGS: usize = 1024;

impl RecvBuf {
    /// An empty buffer.
    pub fn new() -> RecvBuf {
        RecvBuf::default()
    }

    /// Appends newly received bytes, compacting consumed space first when
    /// the dead prefix dominates (so the buffer is reused, not regrown).
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 && (self.start >= self.buf.len() || self.start >= 4096) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Unparsed bytes currently buffered.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether no unparsed bytes remain.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// The bytes of one argument range returned by `parse_command`. Valid
    /// until the next `push` or `consume`.
    pub fn arg(&self, range: (usize, usize)) -> &[u8] {
        &self.buf[self.start + range.0..self.start + range.0 + range.1]
    }

    /// Resolves the ranges `parse_command` filled in to borrowed argument
    /// slices and hands them to `f`. Up to [`MAX_INLINE_ARGS`] arguments
    /// sit in a stack array; only a longer command allocates.
    pub fn with_argv<R>(&self, ranges: &[(usize, usize)], f: impl FnOnce(&[&[u8]]) -> R) -> R {
        if ranges.len() <= MAX_INLINE_ARGS {
            let mut argv: [&[u8]; MAX_INLINE_ARGS] = [b""; MAX_INLINE_ARGS];
            for (slot, &range) in argv.iter_mut().zip(ranges) {
                *slot = self.arg(range);
            }
            f(&argv[..ranges.len()])
        } else {
            let argv: Vec<&[u8]> = ranges.iter().map(|&r| self.arg(r)).collect();
            f(&argv)
        }
    }

    /// Discards `used` bytes from the front (one parsed or skipped frame).
    pub fn consume(&mut self, used: usize) {
        self.start += used;
        debug_assert!(self.start <= self.buf.len());
    }

    /// Parses one complete client command (`*N` array of bulk strings)
    /// from the front, filling `args` with `(offset, len)` ranges for
    /// [`RecvBuf::arg`]. Does not consume — call [`RecvBuf::consume`] with
    /// the reported length after executing.
    pub fn parse_command(&self, args: &mut Vec<(usize, usize)>) -> Parsed {
        args.clear();
        let win = &self.buf[self.start..];
        let Some(&first) = win.first() else {
            return Parsed::Incomplete;
        };
        if first != b'*' {
            return Parsed::Error {
                used: 1,
                msg: "expected array of bulk strings",
            };
        }
        let (argc, mut at) = match parse_length_line(win, 1) {
            LengthLine::Incomplete => return Parsed::Incomplete,
            LengthLine::Bad => {
                return Parsed::Error {
                    used: 1,
                    msg: "bad array length",
                }
            }
            LengthLine::Value(n, next) => (n, next),
        };
        if argc < 0 {
            // A negative array is a null command; nothing to execute.
            return Parsed::Cmd { used: at };
        }
        if argc as usize > MAX_COMMAND_ARGS {
            return Parsed::Error {
                used: 1,
                msg: "array length too large",
            };
        }
        for _ in 0..argc {
            match win.get(at) {
                None => return Parsed::Incomplete,
                Some(b'$') => {}
                Some(_) => {
                    args.clear();
                    return Parsed::Error {
                        used: at + 1,
                        msg: "expected bulk string",
                    };
                }
            }
            let (len, body) = match parse_length_line(win, at + 1) {
                LengthLine::Incomplete => return Parsed::Incomplete,
                LengthLine::Bad => {
                    args.clear();
                    return Parsed::Error {
                        used: at + 1,
                        msg: "bad bulk length",
                    };
                }
                LengthLine::Value(n, next) => (n, next),
            };
            if !(0..=i64::MAX >> 1).contains(&len) {
                args.clear();
                return Parsed::Error {
                    used: at + 1,
                    msg: "bad bulk length",
                };
            }
            let len = len as usize;
            if win.len() < body + len + 2 {
                return Parsed::Incomplete;
            }
            if &win[body + len..body + len + 2] != b"\r\n" {
                args.clear();
                return Parsed::Error {
                    used: body + len,
                    msg: "bulk string missing CRLF",
                };
            }
            args.push((body, len));
            at = body + len + 2;
        }
        Parsed::Cmd { used: at }
    }
}

enum LengthLine {
    Incomplete,
    Bad,
    /// Parsed value plus the offset just past the CRLF.
    Value(i64, usize),
}

/// Parses a decimal length terminated by CRLF starting at `from`, without
/// allocating or validating UTF-8.
fn parse_length_line(win: &[u8], from: usize) -> LengthLine {
    let mut at = from;
    let mut value: i64 = 0;
    let mut digits = 0usize;
    let negative = match win.get(at) {
        Some(b'-') => {
            at += 1;
            true
        }
        _ => false,
    };
    loop {
        match win.get(at) {
            None => return LengthLine::Incomplete,
            Some(b'\r') => break,
            Some(d @ b'0'..=b'9') => {
                if digits >= 18 {
                    return LengthLine::Bad;
                }
                value = value * 10 + i64::from(d - b'0');
                digits += 1;
                at += 1;
            }
            Some(_) => return LengthLine::Bad,
        }
    }
    if digits == 0 {
        return LengthLine::Bad;
    }
    match win.get(at + 1) {
        None => LengthLine::Incomplete,
        Some(b'\n') => LengthLine::Value(if negative { -value } else { value }, at + 2),
        Some(_) => LengthLine::Bad,
    }
}

/// A per-connection reply writer: a scatter list of reusable chunks
/// instead of a fresh `Vec` per reply.
///
/// Contiguous replies append to the open tail chunk. A cross-shard
/// operation that completes later reserves a *pending* slot with
/// [`ReplyBuf::reserve_pending`]; [`ReplyBuf::flush_into`] drains only the
/// ready prefix, so replies always leave in request order even when a
/// mailbox round-trip finishes after younger shard-local requests.
#[derive(Default)]
pub struct ReplyBuf {
    chunks: VecDeque<Chunk>,
    spare: Vec<Vec<u8>>,
    next_token: u64,
}

struct Chunk {
    token: u64,
    buf: Vec<u8>,
    ready: bool,
}

/// Spare chunk buffers kept for reuse per connection.
const SPARE_CHUNKS: usize = 8;

impl ReplyBuf {
    /// An empty reply buffer.
    pub fn new() -> ReplyBuf {
        ReplyBuf::default()
    }

    fn tail(&mut self) -> &mut Vec<u8> {
        let need_new = !self.chunks.back().is_some_and(|c| c.ready);
        if need_new {
            let buf = self.spare.pop().unwrap_or_default();
            self.chunks.push_back(Chunk {
                token: 0,
                buf,
                ready: true,
            });
        }
        &mut self.chunks.back_mut().expect("tail chunk").buf
    }

    /// `+text\r\n`
    pub fn simple(&mut self, text: &str) {
        let buf = self.tail();
        buf.push(b'+');
        buf.extend_from_slice(text.as_bytes());
        buf.extend_from_slice(b"\r\n");
    }

    /// `-text\r\n` (callers include the `ERR ` prefix).
    pub fn error(&mut self, text: &str) {
        let buf = self.tail();
        buf.push(b'-');
        buf.extend_from_slice(text.as_bytes());
        buf.extend_from_slice(b"\r\n");
    }

    /// `:value\r\n`
    pub fn integer(&mut self, value: i64) {
        let buf = self.tail();
        let _ = write!(buf, ":{value}\r\n");
    }

    /// `$len\r\ndata\r\n`, or the null bulk `$-1\r\n`.
    pub fn bulk(&mut self, data: Option<&[u8]>) {
        let buf = self.tail();
        match data {
            None => buf.extend_from_slice(b"$-1\r\n"),
            Some(data) => {
                let _ = write!(buf, "${}\r\n", data.len());
                buf.extend_from_slice(data);
                buf.extend_from_slice(b"\r\n");
            }
        }
    }

    /// A bulk reply copied straight from where its payload lives, whose
    /// length is learnt while it is copied: `find` writes the `$len\r\n`
    /// line through the `header` it is handed, appends the payload to the
    /// buffer, and returns `true`; or returns `false` for the null bulk.
    /// When `find` fails the buffer is cut back to where it started and the
    /// error returned, so the reply the caller writes next is well-formed.
    pub fn bulk_found<E>(
        &mut self,
        find: impl FnOnce(&mut Vec<u8>, fn(&mut Vec<u8>, usize)) -> Result<bool, E>,
    ) -> Result<(), E> {
        let buf = self.tail();
        let start = buf.len();
        let header: fn(&mut Vec<u8>, usize) = |buf, len| {
            let _ = write!(buf, "${len}\r\n");
        };
        match find(buf, header) {
            Ok(true) => buf.extend_from_slice(b"\r\n"),
            Ok(false) => buf.extend_from_slice(b"$-1\r\n"),
            Err(e) => {
                buf.truncate(start);
                return Err(e);
            }
        }
        Ok(())
    }

    /// `*len\r\n` — the caller then writes `len` elements.
    pub fn array_header(&mut self, len: usize) {
        let buf = self.tail();
        let _ = write!(buf, "*{len}\r\n");
    }

    /// Reserves an empty slot for a reply that completes out of band (a
    /// cross-shard mailbox round-trip). Replies written after the slot
    /// stay queued behind it until [`ReplyBuf::complete`] fills it.
    pub fn reserve_pending(&mut self) -> u64 {
        self.next_token += 1;
        let token = self.next_token;
        let buf = self.spare.pop().unwrap_or_default();
        self.chunks.push_back(Chunk {
            token,
            buf,
            ready: false,
        });
        token
    }

    /// Fills the pending slot `token`; `fill` writes the encoded reply.
    pub fn complete(&mut self, token: u64, fill: impl FnOnce(&mut Vec<u8>)) {
        let chunk = self
            .chunks
            .iter_mut()
            .find(|c| !c.ready && c.token == token)
            .expect("pending reply token");
        fill(&mut chunk.buf);
        chunk.ready = true;
    }

    /// Moves the ready prefix into `out`, recycling drained chunk buffers.
    /// Returns the number of bytes flushed.
    pub fn flush_into(&mut self, out: &mut Vec<u8>) -> usize {
        let mut flushed = 0;
        while let Some(front) = self.chunks.front() {
            if !front.ready {
                break;
            }
            let mut chunk = self.chunks.pop_front().expect("front chunk");
            flushed += chunk.buf.len();
            out.extend_from_slice(&chunk.buf);
            if self.spare.len() < SPARE_CHUNKS {
                chunk.buf.clear();
                self.spare.push(chunk.buf);
            }
        }
        flushed
    }
}

/// Skips one complete RESP reply at the front of `input`, returning its
/// length, or `None` if it is incomplete. Allocation-free — the client
/// side of a pipelined connection uses this to count replies without
/// materializing them.
pub fn skip_reply(input: &[u8]) -> Option<usize> {
    fn line_end(input: &[u8]) -> Option<usize> {
        input.windows(2).position(|w| w == b"\r\n").map(|p| p + 2)
    }
    let first = *input.first()?;
    match first {
        b'+' | b'-' | b':' => line_end(&input[1..]).map(|n| 1 + n),
        b'$' => {
            let end = line_end(&input[1..])? + 1;
            let len: i64 = std::str::from_utf8(&input[1..end - 2]).ok()?.parse().ok()?;
            if len < 0 {
                return Some(end);
            }
            let total = end + len as usize + 2;
            (input.len() >= total).then_some(total)
        }
        b'*' => {
            let end = line_end(&input[1..])? + 1;
            let n: i64 = std::str::from_utf8(&input[1..end - 2]).ok()?.parse().ok()?;
            let mut at = end;
            for _ in 0..n.max(0) {
                at += skip_reply(&input[at..])?;
            }
            Some(at)
        }
        _ => Some(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Connection, PerCoreConfig, PerCoreServer};
    use odf_core::Kernel;

    /// A one-shard server and a connection to it.
    fn server() -> (PerCoreServer, Connection) {
        let kernel = Kernel::new(64 << 20);
        let server = PerCoreServer::new(
            &kernel,
            PerCoreConfig {
                shards: 1,
                heap_per_shard: 16 << 20,
                ..Default::default()
            },
        )
        .unwrap();
        let conn = server.connect_to(0);
        (server, conn)
    }

    /// Sends `stream` and returns the first `n` replies to it.
    fn serve(conn: &Connection, stream: &[u8], n: usize) -> Vec<u8> {
        conn.send(stream);
        let mut wire = Vec::new();
        conn.await_replies(n, &mut wire);
        wire
    }

    /// One command over the wire path, its reply decoded.
    fn run(conn: &Connection, parts: &[&[u8]]) -> RespValue {
        let wire = serve(conn, &encode_command(parts), 1);
        let (reply, used) = RespValue::decode(&wire).expect("one complete reply");
        assert_eq!(used, wire.len());
        reply
    }

    #[test]
    fn values_encode_to_wire_format() {
        assert_eq!(RespValue::Simple("OK".into()).encode(), b"+OK\r\n");
        assert_eq!(RespValue::Integer(-7).encode(), b":-7\r\n");
        assert_eq!(RespValue::Bulk(None).encode(), b"$-1\r\n");
        assert_eq!(
            RespValue::Bulk(Some(b"hey".to_vec())).encode(),
            b"$3\r\nhey\r\n"
        );
        assert_eq!(
            encode_command(&[b"GET", b"k"]),
            b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"
        );
    }

    #[test]
    fn decode_round_trips_every_kind() {
        for v in [
            RespValue::Simple("PONG".into()),
            RespValue::Error("ERR x".into()),
            RespValue::Integer(123456),
            RespValue::Bulk(None),
            RespValue::Bulk(Some(b"binary\x00data".to_vec())),
            RespValue::Array(vec![
                RespValue::Integer(1),
                RespValue::Bulk(Some(b"two".to_vec())),
            ]),
        ] {
            let wire = v.encode();
            let (back, used) = RespValue::decode(&wire).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, wire.len());
        }
    }

    #[test]
    fn incomplete_input_asks_for_more() {
        let wire = encode_command(&[b"SET", b"key", b"value"]);
        for cut in 1..wire.len() {
            assert!(
                RespValue::decode(&wire[..cut]).is_none(),
                "cut at {cut} should be incomplete"
            );
        }
    }

    #[test]
    fn malformed_input_degrades_to_errors_not_panics() {
        for bad in [&b"?x\r\n"[..], b":abc\r\n", b"$zz\r\n", b"*x\r\n"] {
            let (v, used) = RespValue::decode(bad).unwrap();
            assert!(matches!(v, RespValue::Error(_)), "{bad:?}");
            assert!(used >= 1);
        }
    }

    #[test]
    fn command_dispatch_covers_the_surface() {
        let (server, s) = server();
        assert_eq!(run(&s, &[b"PING"]), RespValue::Simple("PONG".into()));
        assert_eq!(
            run(&s, &[b"SET", b"k", b"v"]),
            RespValue::Simple("OK".into())
        );
        assert_eq!(
            run(&s, &[b"GET", b"k"]),
            RespValue::Bulk(Some(b"v".to_vec()))
        );
        assert_eq!(run(&s, &[b"EXISTS", b"k"]), RespValue::Integer(1));
        assert_eq!(run(&s, &[b"DBSIZE"]), RespValue::Integer(1));
        assert_eq!(run(&s, &[b"INCR", b"n"]), RespValue::Integer(1));
        assert_eq!(run(&s, &[b"APPEND", b"k", b"2"]), RespValue::Integer(2));
        assert_eq!(run(&s, &[b"DEL", b"k"]), RespValue::Integer(1));
        assert_eq!(run(&s, &[b"GET", b"k"]), RespValue::Bulk(None));
        assert!(matches!(run(&s, &[b"INCR", b"bad"]), RespValue::Integer(1)));
        assert!(matches!(run(&s, &[b"SET", b"k"]), RespValue::Error(_)));
        assert!(matches!(run(&s, &[b"FLUSHALL"]), RespValue::Error(_)));
        assert!(matches!(run(&s, &[b"BGSAVE"]), RespValue::Simple(_)));
        assert_eq!(server.wait_snapshots().len(), 1);
    }

    #[test]
    fn info_and_stats_report_kernel_state() {
        let (_server, s) = server();
        run(&s, &[b"SET", b"k", b"v"]);
        let RespValue::Bulk(Some(info)) = run(&s, &[b"INFO"]) else {
            panic!("INFO must return a bulk string");
        };
        let info = String::from_utf8(info).unwrap();
        assert!(info.contains("# Server"));
        assert!(info.contains("# Memory"));
        assert!(info.contains("vm_faults:"));

        let RespValue::Bulk(Some(mem)) = run(&s, &[b"INFO", b"memory"]) else {
            panic!("INFO memory must return a bulk string");
        };
        let mem = String::from_utf8(mem).unwrap();
        assert!(mem.contains("rss_bytes:") && !mem.contains("# Server"));

        let RespValue::Bulk(Some(prom)) = run(&s, &[b"STATS"]) else {
            panic!("STATS must return a bulk string");
        };
        let prom = String::from_utf8(prom).unwrap();
        assert!(prom.contains("# TYPE odf_vm_faults_total counter"));

        let RespValue::Bulk(Some(json)) = run(&s, &[b"STATS", b"json"]) else {
            panic!("STATS JSON must return a bulk string");
        };
        let json = String::from_utf8(json).unwrap();
        assert!(json.starts_with('{') && json.contains("\"pool\":{"));
    }

    /// Feeds `stream` to a fresh `RecvBuf` in chunks split at `cuts`,
    /// collecting every parsed command as owned argument vectors plus the
    /// protocol errors seen.
    pub(super) fn feed_chunked(
        stream: &[u8],
        cuts: &[usize],
    ) -> (Vec<Vec<Vec<u8>>>, Vec<&'static str>) {
        let mut rx = RecvBuf::new();
        let mut args = Vec::new();
        let mut commands = Vec::new();
        let mut errors = Vec::new();
        let mut fed = 0;
        let mut cuts = cuts.iter().copied().filter(|&c| c <= stream.len());
        loop {
            let next = cuts.next().unwrap_or(stream.len());
            if next > fed {
                rx.push(&stream[fed..next]);
                fed = next;
            }
            loop {
                match rx.parse_command(&mut args) {
                    Parsed::Incomplete => break,
                    Parsed::Error { used, msg } => {
                        errors.push(msg);
                        rx.consume(used);
                    }
                    Parsed::Cmd { used } => {
                        commands.push(args.iter().map(|&r| rx.arg(r).to_vec()).collect());
                        rx.consume(used);
                    }
                }
            }
            if fed == stream.len() {
                return (commands, errors);
            }
        }
    }

    #[test]
    fn incremental_parse_survives_any_split_point() {
        // Frame boundaries land mid-length, mid-CRLF, and mid-bulk-body:
        // every cut of a pipelined burst must parse identically.
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_command(&[b"SET", b"key-1", b"value with spaces"]));
        stream.extend_from_slice(&encode_command(&[b"GET", b"key-1"]));
        stream.extend_from_slice(&encode_command(&[b"PING"]));
        let (whole, errors) = feed_chunked(&stream, &[]);
        assert_eq!(whole.len(), 3);
        assert!(errors.is_empty());
        assert_eq!(whole[0][2], b"value with spaces");
        for cut in 1..stream.len() {
            let (chunked, errors) = feed_chunked(&stream, &[cut]);
            assert_eq!(chunked, whole, "split at byte {cut}");
            assert!(errors.is_empty());
        }
    }

    #[test]
    fn incremental_parse_split_table() {
        // Named boundary cases: exactly where inside a frame the read
        // returns short.
        let wire = encode_command(&[b"SET", b"abc", b"0123456789"]);
        // *3\r\n $3\r\n SET\r\n $3\r\n abc\r\n $10\r\n 0123456789\r\n
        let cases: &[(&str, usize)] = &[
            ("mid array count", 1),
            ("mid header CRLF", 3),
            ("mid bulk length", 5),
            ("mid length CRLF", 7),
            ("mid bulk body", 10),
            ("between body and CRLF", wire.len() - 2),
            ("mid trailing CRLF", wire.len() - 1),
        ];
        for &(what, cut) in cases {
            let mut rx = RecvBuf::new();
            let mut args = Vec::new();
            rx.push(&wire[..cut]);
            assert_eq!(
                rx.parse_command(&mut args),
                Parsed::Incomplete,
                "{what}: prefix must be incomplete"
            );
            rx.push(&wire[cut..]);
            let Parsed::Cmd { used } = rx.parse_command(&mut args) else {
                panic!("{what}: full frame must parse");
            };
            assert_eq!(used, wire.len());
            assert_eq!(rx.arg(args[2]), b"0123456789", "{what}");
        }
    }

    #[test]
    fn incremental_parse_rejects_garbage_without_wedging() {
        let mut stream = b"!\r\n".to_vec();
        stream.extend_from_slice(&encode_command(&[b"PING"]));
        let (commands, errors) = feed_chunked(&stream, &[2]);
        // The garbage degrades to errors byte-by-byte; the following
        // command still parses.
        assert_eq!(commands, vec![vec![b"PING".to_vec()]]);
        assert!(!errors.is_empty());

        let mut rx = RecvBuf::new();
        rx.push(b"*2\r\n$3\r\nGET\r\n:5\r\n");
        let mut args = Vec::new();
        assert!(matches!(
            rx.parse_command(&mut args),
            Parsed::Error {
                msg: "expected bulk string",
                ..
            }
        ));
        let mut rx = RecvBuf::new();
        rx.push(b"*zz\r\n");
        assert!(matches!(
            rx.parse_command(&mut args),
            Parsed::Error {
                msg: "bad array length",
                ..
            }
        ));
    }

    #[test]
    fn reply_buf_preserves_order_around_pending_slots() {
        let mut reply = ReplyBuf::new();
        reply.simple("OK");
        let token = reply.reserve_pending();
        reply.integer(7);
        let mut out = Vec::new();
        assert_eq!(reply.flush_into(&mut out), 5);
        assert_eq!(out, b"+OK\r\n");
        reply.complete(token, |buf| buf.extend_from_slice(b":42\r\n"));
        reply.flush_into(&mut out);
        assert_eq!(out, b"+OK\r\n:42\r\n:7\r\n");
    }

    #[test]
    fn bulk_found_leaves_no_trace_when_find_fails() {
        let mut reply = ReplyBuf::new();
        reply.simple("OK");
        let failed = reply.bulk_found(|buf, header| {
            header(buf, 5);
            buf.extend_from_slice(b"par");
            Err("no")
        });
        assert_eq!(failed, Err("no"));
        reply.error("ERR no");
        let found = reply.bulk_found(|buf, header| {
            header(buf, 3);
            buf.extend_from_slice(b"hey");
            Ok::<_, ()>(true)
        });
        assert_eq!(found, Ok(()));
        assert_eq!(reply.bulk_found(|_, _| Ok::<_, ()>(false)), Ok(()));
        let mut wire = Vec::new();
        reply.flush_into(&mut wire);
        assert_eq!(wire, b"+OK\r\n-ERR no\r\n$3\r\nhey\r\n$-1\r\n");
        let mut at = 0;
        for want in [
            RespValue::Simple("OK".into()),
            RespValue::Error("ERR no".into()),
            RespValue::Bulk(Some(b"hey".to_vec())),
            RespValue::Bulk(None),
        ] {
            let (got, used) = RespValue::decode(&wire[at..]).expect("whole reply");
            assert_eq!(got, want);
            at += used;
        }
    }

    #[test]
    fn skip_reply_walks_every_reply_kind() {
        for v in [
            RespValue::Simple("OK".into()),
            RespValue::Error("ERR x".into()),
            RespValue::Integer(-9),
            RespValue::Bulk(None),
            RespValue::Bulk(Some(b"abc".to_vec())),
            RespValue::Array(vec![
                RespValue::Integer(1),
                RespValue::Bulk(Some(b"two".to_vec())),
            ]),
        ] {
            let wire = v.encode();
            assert_eq!(skip_reply(&wire), Some(wire.len()), "{v:?}");
            for cut in 1..wire.len() {
                assert_eq!(skip_reply(&wire[..cut]), None, "{v:?} cut {cut}");
            }
        }
    }

    #[test]
    fn pipelined_streams_serve_in_order() {
        let (_server, s) = server();
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_command(&[b"SET", b"a", b"1"]));
        stream.extend_from_slice(&encode_command(&[b"INCR", b"a"]));
        stream.extend_from_slice(&encode_command(&[b"GET", b"a"]));
        // Trailing partial command is left for the next read.
        stream.extend_from_slice(b"*1\r\n$4\r\nPI");
        let replies = serve(&s, &stream, 3);
        let expected = [
            RespValue::Simple("OK".into()).encode(),
            RespValue::Integer(2).encode(),
            RespValue::Bulk(Some(b"2".to_vec())).encode(),
        ]
        .concat();
        assert_eq!(replies, expected);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::tests::feed_chunked as feed_chunked_for_prop;
    use super::*;
    use proptest::prelude::*;

    fn command_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..5)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Chunked feeding at arbitrary split points parses to exactly the
        /// same command sequence as one whole-buffer feed.
        #[test]
        fn chunked_equals_whole_buffer(
            commands in proptest::collection::vec(command_strategy(), 1..6),
            cuts in proptest::collection::vec(1usize..4096, 0..12),
        ) {
            let mut stream = Vec::new();
            for cmd in &commands {
                let parts: Vec<&[u8]> = cmd.iter().map(Vec::as_slice).collect();
                stream.extend_from_slice(&encode_command(&parts));
            }
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % stream.len().max(1)).collect();
            cuts.sort_unstable();
            cuts.dedup();
            let (whole, whole_errs) = feed_chunked_for_prop(&stream, &[]);
            let (chunked, chunked_errs) = feed_chunked_for_prop(&stream, &cuts);
            prop_assert_eq!(&whole, &commands);
            prop_assert_eq!(whole, chunked);
            prop_assert_eq!(whole_errs.len(), 0);
            prop_assert_eq!(chunked_errs.len(), 0);
        }
    }
}

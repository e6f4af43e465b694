//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message — request or response — is one *frame*:
//!
//! ```text
//! [len: u32 LE][body: len bytes]
//! ```
//!
//! where the body's first byte is an opcode (requests) or a status code
//! (responses) and the rest is that code's payload. All integers are
//! little-endian; keys carry a `u16` length prefix. The format is designed
//! so that a pipelining client can write any number of frames back to back
//! and a server can decode them incrementally from arbitrary read
//! boundaries — [`FrameDecoder`] never assumes a read ends on a frame
//! boundary, and it yields frame bodies as *views* into its own buffer:
//! the server parses requests in place ([`RequestRef`]) and appends its
//! answers straight to the connection's write buffer ([`encode_none`],
//! [`encode_tid`], [`encode_scan`], …), so a request's bytes are touched
//! once. The owned [`Request`] / [`Response`] enums are the client-side
//! (and test-side) face of the same codec: `Request::decode` is
//! `RequestRef::decode(..).to_owned()` and `Response::encode` runs the
//! same in-place encoders.
//!
//! Pipelining is the protocol's only batching: a client writes many
//! frames back to back, and the server groups each run of GETs or SCANs
//! among them into one batched index call.
//!
//! Request opcodes and their payloads:
//!
//! | opcode | name     | payload                                          |
//! |-------:|----------|--------------------------------------------------|
//! | `0x01` | GET      | `[klen: u16][key]`                               |
//! | `0x02` | PUT      | `[tid: u64][klen: u16][key]`                     |
//! | `0x03` | DEL      | `[klen: u16][key]`                               |
//! | `0x04` | SCAN     | `[limit: u32][klen: u16][start key]`             |
//! | `0x05` | —        | retired (was BATCH), answered as unknown         |
//! | `0x06` | STATS    | empty                                            |
//! | `0x07` | PING     | empty                                            |
//! | `0x08` | SHUTDOWN | empty                                            |
//! | `0x09` | RESUME   | `[limit: u32][shard: u32][klen: u16][last key]`  |
//!
//! A retired code is never reused: it decodes as
//! [`ProtoError::UnknownOpcode`] / [`ProtoError::UnknownStatus`].
//!
//! Response status codes:
//!
//! | status | name     | payload                                                        |
//! |-------:|----------|----------------------------------------------------------------|
//! | `0x00` | OK_NONE  | empty (key absent / write without prior value / pong)          |
//! | `0x01` | OK_TID   | `[tid: u64]`                                                   |
//! | `0x02` | OK_SCAN  | `[more: u8][token if more][count: u32][count × tid: u64]`      |
//! | `0x03` | —        | retired (was OK_BATCH), answered as unknown                    |
//! | `0x04` | OK_TEXT  | `[tlen: u32][utf-8 bytes]`                                     |
//! | `0x0F` | ERR      | `[code: u8][mlen: u16][utf-8 message]`                         |
//!
//! An OK_SCAN token (present when `more == 1`) is `[shard: u32][klen:
//! u16][last key]` — the serialized [`ScanToken`] a RESUME request hands
//! back to continue the scan.

use std::fmt;

/// Hard ceiling on one frame's body length. Anything larger is a protocol
/// violation ([`ProtoError::FrameTooLarge`]): the decoder refuses to
/// buffer it, so a hostile length prefix cannot balloon server memory.
pub const MAX_FRAME: usize = 1 << 20;

/// Largest key the protocol carries — the index's own per-key ceiling, so
/// a frame that decodes is always safe to hand to the trie.
pub const MAX_KEY: usize = hot_keys::MAX_KEY_LEN;

/// Server-side clamp on one scan's result count, chosen so the largest
/// OK_SCAN response still fits [`MAX_FRAME`] with room for the token.
pub const MAX_SCAN_TIDS: usize = 100_000;

/// Error codes carried by an ERR response.
pub mod err_code {
    /// The request body could not be decoded.
    pub const BAD_FRAME: u8 = 1;
    /// PUT named a TID whose stored key differs from the one sent.
    pub const TID_MISMATCH: u8 = 2;
    /// The server is draining connections after a SHUTDOWN.
    pub const SHUTTING_DOWN: u8 = 3;
    /// The response to a legal request would exceed [`super::MAX_FRAME`];
    /// sent in its place (the request needs to be split up).
    pub const RESPONSE_TOO_LARGE: u8 = 4;
    /// The server already serves `ServerConfig::max_connections`
    /// connections; sent by the acceptor, which then closes the socket.
    pub const OVERLOADED: u8 = 5;
}

const OP_GET: u8 = 0x01;
const OP_PUT: u8 = 0x02;
const OP_DEL: u8 = 0x03;
const OP_SCAN: u8 = 0x04;
const OP_STATS: u8 = 0x06;
const OP_PING: u8 = 0x07;
const OP_SHUTDOWN: u8 = 0x08;
const OP_RESUME: u8 = 0x09;

const ST_NONE: u8 = 0x00;
const ST_TID: u8 = 0x01;
const ST_SCAN: u8 = 0x02;
const ST_TEXT: u8 = 0x04;
const ST_ERR: u8 = 0x0F;

/// Typed decode failure. Every variant is a *protocol* violation — the
/// decoder never panics on wire input, it returns one of these, and the
/// server answers with an ERR frame and closes the connection (a framing
/// error leaves no safe way to resynchronize the byte stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// A length prefix exceeded [`MAX_FRAME`].
    FrameTooLarge(usize),
    /// A zero-length body (every body holds at least an opcode).
    EmptyFrame,
    /// The body ended before its payload was complete.
    Truncated(&'static str),
    /// The body continued past its payload.
    TrailingBytes(usize),
    /// An opcode outside the request table.
    UnknownOpcode(u8),
    /// A status byte outside the response table.
    UnknownStatus(u8),
    /// A key length above [`MAX_KEY`].
    KeyTooLong(usize),
    /// A text payload that was not UTF-8.
    BadText,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::FrameTooLarge(n) => write!(f, "frame body of {n} bytes exceeds MAX_FRAME"),
            ProtoError::EmptyFrame => write!(f, "zero-length frame body"),
            ProtoError::Truncated(what) => write!(f, "frame body truncated reading {what}"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            ProtoError::UnknownOpcode(op) => write!(f, "unknown request opcode {op:#04x}"),
            ProtoError::UnknownStatus(st) => write!(f, "unknown response status {st:#04x}"),
            ProtoError::KeyTooLong(n) => write!(f, "key of {n} bytes exceeds MAX_KEY"),
            ProtoError::BadText => write!(f, "text payload is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// One decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Point lookup.
    Get {
        /// The probed key.
        key: Vec<u8>,
    },
    /// Upsert of `key → tid`. The server validates that `tid` resolves to
    /// `key` in its tuple store before touching the index (see
    /// [`err_code::TID_MISMATCH`]).
    Put {
        /// The tuple identifier to store.
        tid: u64,
        /// The key it must resolve to.
        key: Vec<u8>,
    },
    /// Remove a key.
    Del {
        /// The key to remove.
        key: Vec<u8>,
    },
    /// Range scan of up to `limit` entries from `start` (inclusive).
    Scan {
        /// First key of the range.
        start: Vec<u8>,
        /// Maximum entries returned (server-clamped to [`MAX_SCAN_TIDS`]).
        limit: u32,
    },
    /// Continue a paged scan from a token minted by a previous
    /// SCAN/RESUME response.
    Resume {
        /// The continuation token (strictly-after semantics).
        token: ScanToken,
        /// Maximum entries returned for this page.
        limit: u32,
    },
    /// Server metrics snapshot as an OK_TEXT JSON document.
    Stats,
    /// Liveness probe; answered with OK_NONE.
    Ping,
    /// Ask the server to stop accepting connections and exit cleanly.
    Shutdown,
}

/// One decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// OK with no value.
    None,
    /// OK with a tuple identifier.
    Tid(u64),
    /// Scan results plus an optional continuation token.
    Scan {
        /// The TIDs, in key order.
        tids: Vec<u64>,
        /// Present when the page filled — hand it to a RESUME request
        /// for the next page.
        token: Option<ScanToken>,
    },
    /// A UTF-8 document (STATS).
    Text(String),
    /// A typed failure.
    Error {
        /// One of the [`err_code`] constants.
        code: u8,
        /// Human-readable detail.
        msg: String,
    },
}

/// Resumable scan position for a client that cannot hold a cursor across
/// requests: the last key a page returned plus the shard that owned it
/// when the token was minted. A RESUME with it answers the keys strictly
/// after `last_key`, even if that key was deleted — or the splitter layout
/// would place it elsewhere — between pages: the server re-routes by key,
/// and the shard index is a routing hint of the wire format, not a
/// correctness input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanToken {
    /// Shard that owned `last_key` when the page was produced.
    pub shard: u32,
    /// The last key of the previous page; the next page starts strictly
    /// after it.
    pub last_key: Vec<u8>,
}

/// A continuation token whose key is borrowed — from a RESUME frame's
/// body, from an owned [`ScanToken`], or from the tuple store when the
/// server mints the token of a filled page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanTokenRef<'a> {
    /// The shard owning `last_key`.
    pub shard: u32,
    /// The last key of the page; the next page starts strictly after it.
    pub last_key: &'a [u8],
}

impl ScanTokenRef<'_> {
    /// The owned token an owned [`Request`] or [`Response`] carries.
    pub fn to_owned(&self) -> ScanToken {
        ScanToken {
            shard: self.shard,
            last_key: self.last_key.to_vec(),
        }
    }
}

impl<'a> From<&'a ScanToken> for ScanTokenRef<'a> {
    fn from(token: &'a ScanToken) -> ScanTokenRef<'a> {
        ScanTokenRef {
            shard: token.shard,
            last_key: &token.last_key,
        }
    }
}

/// One request decoded in place: the same variants as [`Request`], with
/// every key a view into the frame body it was parsed from. This is the
/// protocol's one request parser — the server executes these directly
/// off the [`FrameDecoder`]'s buffer, and [`Request::decode`] is this
/// plus [`to_owned`](RequestRef::to_owned). It owns nothing, so it is
/// `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestRef<'a> {
    /// Point lookup.
    Get {
        /// The probed key.
        key: &'a [u8],
    },
    /// Upsert of `key → tid` (see [`Request::Put`]).
    Put {
        /// The tuple identifier to store.
        tid: u64,
        /// The key it must resolve to.
        key: &'a [u8],
    },
    /// Remove a key.
    Del {
        /// The key to remove.
        key: &'a [u8],
    },
    /// Range scan of up to `limit` entries from `start` (inclusive).
    Scan {
        /// First key of the range.
        start: &'a [u8],
        /// Maximum entries returned (server-clamped to [`MAX_SCAN_TIDS`]).
        limit: u32,
    },
    /// Continue a paged scan.
    Resume {
        /// The continuation token (strictly-after semantics).
        token: ScanTokenRef<'a>,
        /// Maximum entries returned for this page.
        limit: u32,
    },
    /// Server metrics snapshot.
    Stats,
    /// Liveness probe.
    Ping,
    /// Ask the server to exit cleanly.
    Shutdown,
}

/// Bounded reader over one frame body: the bytes not yet consumed.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(body: &'a [u8]) -> Cursor<'a> {
        Cursor { rest: body }
    }

    #[inline]
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ProtoError> {
        let (bytes, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or(ProtoError::Truncated(what))?;
        self.rest = rest;
        Ok(bytes)
    }

    #[inline]
    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], ProtoError> {
        let (bytes, rest) = self
            .rest
            .split_first_chunk()
            .ok_or(ProtoError::Truncated(what))?;
        self.rest = rest;
        Ok(*bytes)
    }

    #[inline]
    fn u8(&mut self, what: &'static str) -> Result<u8, ProtoError> {
        Ok(self.array::<1>(what)?[0])
    }

    #[inline]
    fn u16(&mut self, what: &'static str) -> Result<u16, ProtoError> {
        self.array(what).map(u16::from_le_bytes)
    }

    #[inline]
    fn u32(&mut self, what: &'static str) -> Result<u32, ProtoError> {
        self.array(what).map(u32::from_le_bytes)
    }

    #[inline]
    fn u64(&mut self, what: &'static str) -> Result<u64, ProtoError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// `[klen: u16][key]`, bounded by [`MAX_KEY`].
    #[inline]
    fn key(&mut self) -> Result<&'a [u8], ProtoError> {
        let len = self.u16("key length")? as usize;
        if len > MAX_KEY {
            return Err(ProtoError::KeyTooLong(len));
        }
        self.take(len, "key bytes")
    }

    #[inline]
    fn done(&self) -> Result<(), ProtoError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes(self.rest.len()))
        }
    }
}

fn put_key(out: &mut Vec<u8>, key: &[u8]) {
    debug_assert!(
        key.len() <= MAX_KEY,
        "callers construct keys within MAX_KEY"
    );
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(key);
}

/// Reserve a frame's length slot, run `body`, then patch the slot with
/// the encoded body length. Requests only: every request a conforming
/// client can construct fits [`MAX_FRAME`] by the key cap, so an overrun
/// here is a caller bug, not a wire condition.
fn frame(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let slot = out.len();
    out.extend_from_slice(&[0u8; 4]);
    body(out);
    let len = out.len() - slot - 4;
    debug_assert!(len <= MAX_FRAME, "encoded frame exceeds MAX_FRAME");
    out[slot..slot + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

impl Request {
    /// Append this request as one complete frame (length prefix included).
    pub fn encode(&self, out: &mut Vec<u8>) {
        frame(out, |out| match self {
            Request::Get { key } => {
                out.push(OP_GET);
                put_key(out, key);
            }
            Request::Put { tid, key } => {
                out.push(OP_PUT);
                out.extend_from_slice(&tid.to_le_bytes());
                put_key(out, key);
            }
            Request::Del { key } => {
                out.push(OP_DEL);
                put_key(out, key);
            }
            Request::Scan { start, limit } => {
                out.push(OP_SCAN);
                out.extend_from_slice(&limit.to_le_bytes());
                put_key(out, start);
            }
            Request::Resume { token, limit } => {
                out.push(OP_RESUME);
                out.extend_from_slice(&limit.to_le_bytes());
                out.extend_from_slice(&token.shard.to_le_bytes());
                put_key(out, &token.last_key);
            }
            Request::Stats => out.push(OP_STATS),
            Request::Ping => out.push(OP_PING),
            Request::Shutdown => out.push(OP_SHUTDOWN),
        });
    }

    /// Decode one frame body into an owned request:
    /// [`RequestRef::decode`] plus [`RequestRef::to_owned`].
    pub fn decode(body: &[u8]) -> Result<Request, ProtoError> {
        RequestRef::decode(body).map(|req| RequestRef::to_owned(&req))
    }
}

impl<'a> RequestRef<'a> {
    /// Decode one frame body in place. Rejects trailing bytes, so a frame
    /// is exactly one request. Allocates nothing.
    ///
    /// Inlined into its callers, so the window loop sees a request's
    /// fields as values and not as an enum copied through memory (the
    /// copy costs more than the parse).
    #[inline(always)]
    pub fn decode(body: &'a [u8]) -> Result<RequestRef<'a>, ProtoError> {
        let mut cur = Cursor::new(body);
        let req = match cur.u8("opcode")? {
            OP_GET => RequestRef::Get { key: cur.key()? },
            OP_PUT => {
                let tid = cur.u64("PUT tid")?;
                RequestRef::Put {
                    tid,
                    key: cur.key()?,
                }
            }
            OP_DEL => RequestRef::Del { key: cur.key()? },
            OP_SCAN => {
                let limit = cur.u32("SCAN limit")?;
                RequestRef::Scan {
                    start: cur.key()?,
                    limit,
                }
            }
            OP_RESUME => {
                let limit = cur.u32("RESUME limit")?;
                let shard = cur.u32("RESUME shard")?;
                let last_key = cur.key()?;
                RequestRef::Resume {
                    token: ScanTokenRef { shard, last_key },
                    limit,
                }
            }
            OP_STATS => RequestRef::Stats,
            OP_PING => RequestRef::Ping,
            OP_SHUTDOWN => RequestRef::Shutdown,
            other => return Err(ProtoError::UnknownOpcode(other)),
        };
        cur.done()?;
        Ok(req)
    }

    /// Copy the borrowed keys into an owned [`Request`].
    pub fn to_owned(&self) -> Request {
        match self {
            RequestRef::Get { key } => Request::Get { key: key.to_vec() },
            RequestRef::Put { tid, key } => Request::Put {
                tid: *tid,
                key: key.to_vec(),
            },
            RequestRef::Del { key } => Request::Del { key: key.to_vec() },
            RequestRef::Scan { start, limit } => Request::Scan {
                start: start.to_vec(),
                limit: *limit,
            },
            RequestRef::Resume { token, limit } => Request::Resume {
                token: token.to_owned(),
                limit: *limit,
            },
            RequestRef::Stats => Request::Stats,
            RequestRef::Ping => Request::Ping,
            RequestRef::Shutdown => Request::Shutdown,
        }
    }
}

/// Reserve a response frame's length slot; [`end_frame`] patches it.
fn begin_frame(out: &mut Vec<u8>) -> usize {
    let slot = out.len();
    out.extend_from_slice(&[0u8; 4]);
    slot
}

/// Close the frame opened at `slot` by [`begin_frame`].
///
/// Never leaves a frame over [`MAX_FRAME`]: a body that would exceed the
/// cap (which the peer's decoder would reject, poisoning the connection —
/// and whose u32 length prefix could even wrap) is replaced in place by
/// an [`err_code::RESPONSE_TOO_LARGE`] ERR frame, so every encoded
/// response is decodable by a conforming peer.
fn end_frame(out: &mut Vec<u8>, slot: usize) {
    let mut len = out.len() - slot - 4;
    if len > MAX_FRAME {
        out.truncate(slot + 4);
        let msg = format!("response of {len} bytes exceeds the {MAX_FRAME}-byte frame cap");
        put_error(out, err_code::RESPONSE_TOO_LARGE, &msg);
        len = out.len() - slot - 4;
    }
    out[slot..slot + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Append OK_NONE — byte-identical to `Response::None`.
#[inline]
pub fn encode_none(out: &mut Vec<u8>) {
    out.extend_from_slice(&[1, 0, 0, 0, ST_NONE]);
}

/// Append OK_TID — byte-identical to `Response::Tid(tid)`.
#[inline]
pub fn encode_tid(out: &mut Vec<u8>, tid: u64) {
    let mut frame = [9, 0, 0, 0, ST_TID, 0, 0, 0, 0, 0, 0, 0, 0];
    frame[5..].copy_from_slice(&tid.to_le_bytes());
    out.extend_from_slice(&frame);
}

/// Append OK_SCAN with its TIDs read straight from `tids` —
/// byte-identical to `Response::Scan { tids, token }`.
pub fn encode_scan(out: &mut Vec<u8>, tids: &[u64], token: Option<ScanTokenRef<'_>>) {
    let slot = begin_frame(out);
    out.push(ST_SCAN);
    match token {
        Some(t) => {
            out.push(1);
            out.extend_from_slice(&t.shard.to_le_bytes());
            put_key(out, t.last_key);
        }
        None => out.push(0),
    }
    out.extend_from_slice(&(tids.len() as u32).to_le_bytes());
    out.reserve(tids.len() * 8);
    for tid in tids {
        out.extend_from_slice(&tid.to_le_bytes());
    }
    end_frame(out, slot);
}

/// Append OK_TEXT — byte-identical to `Response::Text`.
pub fn encode_text(out: &mut Vec<u8>, text: &str) {
    let slot = begin_frame(out);
    out.push(ST_TEXT);
    out.extend_from_slice(&(text.len() as u32).to_le_bytes());
    out.extend_from_slice(text.as_bytes());
    end_frame(out, slot);
}

/// Append ERR — byte-identical to `Response::Error { code, msg }`.
pub fn encode_error(out: &mut Vec<u8>, code: u8, msg: &str) {
    let slot = begin_frame(out);
    put_error(out, code, msg);
    end_frame(out, slot);
}

/// The body of an ERR frame: what [`encode_error`] frames, and what
/// [`end_frame`] writes over an oversized body.
fn put_error(out: &mut Vec<u8>, code: u8, msg: &str) {
    out.push(ST_ERR);
    out.push(code);
    // The u16 length forces truncation of huge messages; back off to a
    // char boundary so the peer never sees a split codepoint (which would
    // decode as BadText, hiding the original error behind a protocol
    // error).
    let mut cut = msg.len().min(u16::MAX as usize);
    while !msg.is_char_boundary(cut) {
        cut -= 1;
    }
    let bytes = &msg.as_bytes()[..cut];
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
}

impl Response {
    /// Append this response as one complete frame (length prefix
    /// included), through the server's in-place encoders; a body over
    /// [`MAX_FRAME`] is replaced by an [`err_code::RESPONSE_TOO_LARGE`]
    /// ERR frame.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::None => encode_none(out),
            Response::Tid(tid) => encode_tid(out, *tid),
            Response::Scan { tids, token } => {
                encode_scan(out, tids, token.as_ref().map(ScanTokenRef::from));
            }
            Response::Text(text) => encode_text(out, text),
            Response::Error { code, msg } => encode_error(out, *code, msg),
        }
    }

    /// Decode one frame body. Rejects trailing bytes, so a frame is
    /// exactly one response.
    pub fn decode(body: &[u8]) -> Result<Response, ProtoError> {
        let mut cur = Cursor::new(body);
        let resp = Response::decode_body(&mut cur)?;
        cur.done()?;
        Ok(resp)
    }

    fn decode_body(cur: &mut Cursor<'_>) -> Result<Response, ProtoError> {
        match cur.u8("status")? {
            ST_NONE => Ok(Response::None),
            ST_TID => Ok(Response::Tid(cur.u64("OK_TID tid")?)),
            ST_SCAN => {
                let token = match cur.u8("OK_SCAN more flag")? {
                    0 => Option::None,
                    _ => {
                        let shard = cur.u32("OK_SCAN token shard")?;
                        Some(ScanToken {
                            shard,
                            last_key: cur.key()?.to_vec(),
                        })
                    }
                };
                let count = cur.u32("OK_SCAN count")? as usize;
                // A true count is bounded by the remaining payload; refuse
                // to allocate more than that for a hostile one.
                if count > cur.rest.len() / 8 {
                    return Err(ProtoError::Truncated("OK_SCAN tids"));
                }
                let mut tids = Vec::with_capacity(count);
                for _ in 0..count {
                    tids.push(cur.u64("OK_SCAN tid")?);
                }
                Ok(Response::Scan { tids, token })
            }
            ST_TEXT => {
                let len = cur.u32("OK_TEXT length")? as usize;
                let bytes = cur.take(len, "OK_TEXT bytes")?;
                let text = std::str::from_utf8(bytes).map_err(|_| ProtoError::BadText)?;
                Ok(Response::Text(text.to_string()))
            }
            ST_ERR => {
                let code = cur.u8("ERR code")?;
                let len = cur.u16("ERR message length")? as usize;
                let bytes = cur.take(len, "ERR message bytes")?;
                let msg = std::str::from_utf8(bytes).map_err(|_| ProtoError::BadText)?;
                Ok(Response::Error {
                    code,
                    msg: msg.to_string(),
                })
            }
            other => Err(ProtoError::UnknownStatus(other)),
        }
    }
}

/// Incremental frame splitter: fill it from the transport, pull complete
/// frame bodies out as views into its buffer. Tolerates any split of the
/// byte stream — a frame may arrive one byte at a time or many frames may
/// land in one read.
///
/// The decoder owns the connection's one read buffer:
/// [`fill_from`](Self::fill_from) reads from the socket straight into it
/// ([`feed`](Self::feed) copies in bytes a caller already holds), and
/// [`next_frame`](Self::next_frame) / [`frames`](Self::frames) hand out
/// `&[u8]` bodies that borrow it. Both ways of adding bytes take `&mut
/// self` and may move the unconsumed tail to the front of the buffer or
/// grow it, so the borrow checker is what proves that no body view is
/// alive when that happens.
///
/// The decoder is format-agnostic: it enforces only the length-prefix
/// framing ([`MAX_FRAME`], non-empty bodies); [`RequestRef::decode`] /
/// [`Response::decode`] interpret the bodies it yields.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Storage, fully initialised; `buf[pos..end]` is what was read and
    /// not yet yielded, `buf[end..]` is room for the next read.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
}

/// Room [`FrameDecoder::fill_from`] offers one read (and the buffer's
/// first size): enough for several pipelined windows of small requests
/// per syscall.
const FILL_CHUNK: usize = 32 << 10;

impl FrameDecoder {
    /// An empty decoder (its buffer is allocated by the first bytes).
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Make `buf[end..]` at least `need` bytes long: for free when
    /// everything buffered was consumed, else by moving the unconsumed
    /// bytes to the front, else by growing. Bytes are moved only when the
    /// tail is short, so a stream of small frames through a large buffer
    /// is compacted once per buffer-full, not once per read.
    fn reserve(&mut self, need: usize) {
        if self.pos == self.end {
            self.pos = 0;
            self.end = 0;
        }
        if self.buf.len() - self.end >= need {
            return;
        }
        if self.pos > 0 {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        if self.buf.len() - self.end < need {
            let grown = (self.end + need).max(self.buf.len() * 2);
            self.buf.resize(grown, 0);
        }
    }

    /// Append raw bytes the caller already holds.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Read once from `src` straight into the decoder's buffer; returns
    /// the byte count (`Ok(0)` is end of stream) or `src`'s error, which
    /// leaves the decoder unchanged — a `WouldBlock` is safe to retry.
    pub fn fill_from(&mut self, src: &mut impl std::io::Read) -> std::io::Result<usize> {
        self.reserve(FILL_CHUNK);
        let room = &mut self.buf[self.end..];
        let n = src.read(room)?;
        assert!(
            n <= room.len(),
            "Read::read returned more than the buffer holds"
        );
        self.end += n;
        Ok(n)
    }

    /// Bytes buffered but not yet yielded as frames.
    pub fn pending(&self) -> usize {
        self.end - self.pos
    }

    /// The buffered complete frames, as body views that may be held
    /// together (a window of requests executed as one unit) for as long
    /// as the decoder is not filled again.
    pub fn frames(&mut self) -> Frames<'_> {
        Frames {
            buf: &self.buf[..self.end],
            pos: &mut self.pos,
        }
    }

    /// Yield the next complete frame body, `Ok(None)` when more bytes are
    /// needed, or a framing error (after which the stream cannot be
    /// resynchronized and should be closed).
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, ProtoError> {
        self.frames().next().transpose()
    }
}

/// Iterator over a [`FrameDecoder`]'s buffered frames: `None` when the
/// next frame is incomplete, `Some(Err(_))` on a framing violation (not
/// consumed — the stream is dead), else the next body.
#[derive(Debug)]
pub struct Frames<'a> {
    buf: &'a [u8],
    pos: &'a mut usize,
}

impl<'a> Iterator for Frames<'a> {
    type Item = Result<&'a [u8], ProtoError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let buf = self.buf;
        let rest = &buf[*self.pos..];
        let len = u32::from_le_bytes(*rest.first_chunk()?) as usize;
        if len == 0 {
            return Some(Err(ProtoError::EmptyFrame));
        }
        if len > MAX_FRAME {
            return Some(Err(ProtoError::FrameTooLarge(len)));
        }
        let body = rest.get(4..4 + len)?;
        *self.pos += 4 + len;
        Some(Ok(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_each_request() {
        let reqs = vec![
            Request::Get { key: b"k".to_vec() },
            Request::Put {
                tid: 7,
                key: b"key".to_vec(),
            },
            Request::Del { key: Vec::new() },
            Request::Scan {
                start: b"a".to_vec(),
                limit: 100,
            },
            Request::Resume {
                token: ScanToken {
                    shard: 3,
                    last_key: b"zz".to_vec(),
                },
                limit: 5,
            },
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
        ];
        let mut wire = Vec::new();
        for r in &reqs {
            r.encode(&mut wire);
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        for want in &reqs {
            let body = dec.next_frame().unwrap().expect("frame present");
            assert_eq!(&Request::decode(body).unwrap(), want);
        }
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn round_trip_each_response() {
        let resps = vec![
            Response::None,
            Response::Tid(u64::MAX),
            Response::Scan {
                tids: vec![1, 2, 3],
                token: None,
            },
            Response::Scan {
                tids: vec![9],
                token: Some(ScanToken {
                    shard: 1,
                    last_key: b"m".to_vec(),
                }),
            },
            Response::Text("{\"ok\":true}".to_string()),
            Response::Error {
                code: err_code::BAD_FRAME,
                msg: "nope".to_string(),
            },
        ];
        let mut wire = Vec::new();
        for r in &resps {
            r.encode(&mut wire);
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        for want in &resps {
            let body = dec.next_frame().unwrap().expect("frame present");
            assert_eq!(&Response::decode(body).unwrap(), want);
        }
    }

    #[test]
    fn split_reads_reassemble() {
        let mut wire = Vec::new();
        Request::Put {
            tid: 42,
            key: b"hello".to_vec(),
        }
        .encode(&mut wire);
        for chunk in [1usize, 2, 3, 7] {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                dec.feed(piece);
                while let Some(body) = dec.next_frame().unwrap() {
                    got.push(Request::decode(body).unwrap());
                }
            }
            assert_eq!(
                got,
                vec![Request::Put {
                    tid: 42,
                    key: b"hello".to_vec()
                }]
            );
        }
    }

    #[test]
    fn framing_violations_are_typed() {
        let mut dec = FrameDecoder::new();
        dec.feed(&0u32.to_le_bytes());
        assert_eq!(dec.next_frame(), Err(ProtoError::EmptyFrame));

        let mut dec = FrameDecoder::new();
        dec.feed(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert_eq!(
            dec.next_frame(),
            Err(ProtoError::FrameTooLarge(MAX_FRAME + 1))
        );

        assert_eq!(Request::decode(&[]), Err(ProtoError::Truncated("opcode")));
        assert_eq!(
            Request::decode(&[0x7E]),
            Err(ProtoError::UnknownOpcode(0x7E))
        );
        assert_eq!(
            Request::decode(&[OP_PING, 0]),
            Err(ProtoError::TrailingBytes(1))
        );
    }

    /// The retired BATCH opcode and OK_BATCH status are unknown codes, with
    /// or without the count and bodies they used to carry.
    #[test]
    fn retired_batch_codes_decode_as_unknown() {
        for body in [
            &[0x05][..],
            &[0x05, 0, 0, 0, 0],
            &[0x05, 1, 0, 0, 0, OP_PING],
        ] {
            assert_eq!(Request::decode(body), Err(ProtoError::UnknownOpcode(0x05)));
        }
        for body in [
            &[0x03][..],
            &[0x03, 0, 0, 0, 0],
            &[0x03, 1, 0, 0, 0, ST_NONE],
        ] {
            assert_eq!(Response::decode(body), Err(ProtoError::UnknownStatus(0x03)));
        }
    }

    #[test]
    fn oversized_response_is_replaced_by_err_frame() {
        let resp = Response::Scan {
            tids: vec![7; MAX_FRAME / 8 + 1],
            token: None,
        };
        let mut wire = Vec::new();
        resp.encode(&mut wire);
        assert!(
            wire.len() <= MAX_FRAME + 4,
            "frame must fit the decoder's cap"
        );
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let body = dec.next_frame().unwrap().expect("one complete frame");
        match Response::decode(body).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, err_code::RESPONSE_TOO_LARGE),
            other => panic!("expected ERR replacement, got {other:?}"),
        }
    }

    #[test]
    fn error_message_truncates_on_char_boundary() {
        // 2-byte codepoints put every char boundary at an even offset;
        // the u16::MAX (odd) cut must back off one byte, not split 'é'.
        let msg = "é".repeat(40_000); // 80_000 bytes
        let mut wire = Vec::new();
        Response::Error {
            code: err_code::BAD_FRAME,
            msg: msg.clone(),
        }
        .encode(&mut wire);
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let body = dec.next_frame().unwrap().expect("one complete frame");
        match Response::decode(body).expect("truncation must stay valid UTF-8") {
            Response::Error { code, msg: got } => {
                assert_eq!(code, err_code::BAD_FRAME);
                assert_eq!(got.len(), u16::MAX as usize - 1);
                assert!(msg.starts_with(&got));
            }
            other => panic!("expected ERR, got {other:?}"),
        }
    }
}

//! Protocol fuzzing: the frame decoder and both body codecs must be total
//! over arbitrary wire input — any byte sequence either decodes or
//! returns a typed [`ProtoError`], never panics, never over-allocates —
//! and encode → (arbitrarily split) decode must be the identity on every
//! representable request and response.
//!
//! Runs in the normal and `HOT_FORCE_SCALAR` CI lanes; the decoder is
//! index-independent, so identical behavior across lanes is itself part
//! of the property.

use hot_server::protocol::{
    encode_error, encode_none, encode_scan, encode_text, encode_tid, err_code, FrameDecoder,
    ProtoError, Request, RequestRef, Response, ScanToken, ScanTokenRef, MAX_FRAME,
};
use proptest::prelude::*;

fn key() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..48)
}

fn token() -> impl Strategy<Value = ScanToken> {
    (any::<u32>(), key()).prop_map(|(shard, last_key)| ScanToken { shard, last_key })
}

/// Any request.
fn request() -> BoxedStrategy<Request> {
    prop_oneof![
        4 => key().prop_map(|key| Request::Get { key }),
        3 => (any::<u64>(), key()).prop_map(|(tid, key)| Request::Put { tid, key }),
        2 => key().prop_map(|key| Request::Del { key }),
        2 => (key(), any::<u32>()).prop_map(|(start, limit)| Request::Scan { start, limit }),
        2 => (token(), any::<u32>()).prop_map(|(token, limit)| Request::Resume { token, limit }),
        1 => (0u32..1).prop_map(|_| Request::Stats),
        1 => (0u32..1).prop_map(|_| Request::Ping),
        1 => (0u32..1).prop_map(|_| Request::Shutdown),
    ]
    .boxed()
}

fn ascii() -> impl Strategy<Value = String> {
    proptest::collection::vec(32u8..127, 0..40)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii"))
}

/// Any response.
fn response() -> BoxedStrategy<Response> {
    prop_oneof![
        2 => (0u32..1).prop_map(|_| Response::None),
        3 => any::<u64>().prop_map(Response::Tid),
        3 => (proptest::collection::vec(any::<u64>(), 0..20), any::<bool>(), token()).prop_map(
            |(tids, more, token)| Response::Scan { tids, token: more.then_some(token) }
        ),
        1 => ascii().prop_map(Response::Text),
        1 => (any::<u8>(), ascii()).prop_map(|(code, msg)| Response::Error { code, msg }),
    ]
    .boxed()
}

/// Feed `wire` to a fresh decoder in the given chunk sizes and collect
/// every decoded frame body.
fn decode_split(wire: &[u8], chunks: &[usize]) -> Vec<Vec<u8>> {
    let mut dec = FrameDecoder::new();
    let mut out = Vec::new();
    let mut at = 0;
    let mut chunk_idx = 0;
    while at < wire.len() {
        let step = chunks
            .get(chunk_idx)
            .copied()
            .unwrap_or(7)
            .clamp(1, wire.len() - at);
        chunk_idx += 1;
        dec.feed(&wire[at..at + step]);
        at += step;
        while let Some(body) = dec.next_frame().expect("valid stream") {
            out.push(body.to_vec());
        }
    }
    out
}

/// A transport that hands out `data` in reads of the given sizes (then 7
/// bytes at a time), never more than the caller's buffer holds.
struct ChunkedReader<'a> {
    data: &'a [u8],
    sizes: std::slice::Iter<'a, usize>,
}

impl std::io::Read for ChunkedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self
            .sizes
            .next()
            .copied()
            .unwrap_or(7)
            .min(buf.len())
            .min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Whether `part` is a view into `whole` (an empty one may sit anywhere).
fn lies_within(part: &[u8], whole: &[u8]) -> bool {
    let (lo, hi) = (
        whole.as_ptr() as usize,
        whole.as_ptr() as usize + whole.len(),
    );
    let at = part.as_ptr() as usize;
    part.is_empty() || (lo <= at && at + part.len() <= hi)
}

/// Every key a borrowed request carries.
fn keys_of<'a>(req: &RequestRef<'a>, out: &mut Vec<&'a [u8]>) {
    match req {
        RequestRef::Get { key } | RequestRef::Put { key, .. } | RequestRef::Del { key } => {
            out.push(key)
        }
        RequestRef::Scan { start, .. } => out.push(start),
        RequestRef::Resume { token, .. } => out.push(token.last_key),
        RequestRef::Stats | RequestRef::Ping | RequestRef::Shutdown => {}
    }
}

/// `resp` through the in-place encoders, the way the server writes it.
fn encode_in_place(resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::None => encode_none(out),
        Response::Tid(tid) => encode_tid(out, *tid),
        Response::Scan { tids, token } => {
            encode_scan(out, tids, token.as_ref().map(ScanTokenRef::from))
        }
        Response::Text(text) => encode_text(out, text),
        Response::Error { code, msg } => encode_error(out, *code, msg),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode is the identity for any request pipeline, at any
    /// read fragmentation.
    #[test]
    fn request_round_trip_survives_any_split(
        reqs in proptest::collection::vec(request(), 1..8),
        chunks in proptest::collection::vec(1usize..64, 1..32),
    ) {
        let mut wire = Vec::new();
        for r in &reqs {
            r.encode(&mut wire);
        }
        let bodies = decode_split(&wire, &chunks);
        prop_assert_eq!(bodies.len(), reqs.len());
        for (body, want) in bodies.iter().zip(&reqs) {
            prop_assert_eq!(&Request::decode(body).expect("own encoding decodes"), want);
        }
    }

    /// encode → decode is the identity for any response pipeline, at any
    /// read fragmentation.
    #[test]
    fn response_round_trip_survives_any_split(
        resps in proptest::collection::vec(response(), 1..8),
        chunks in proptest::collection::vec(1usize..64, 1..32),
    ) {
        let mut wire = Vec::new();
        for r in &resps {
            r.encode(&mut wire);
        }
        let bodies = decode_split(&wire, &chunks);
        prop_assert_eq!(bodies.len(), resps.len());
        for (body, want) in bodies.iter().zip(&resps) {
            prop_assert_eq!(&Response::decode(body).expect("own encoding decodes"), want);
        }
    }

    /// Arbitrary bytes never panic the decoder or the body codecs: every
    /// outcome is a decoded value or a typed error.
    #[test]
    fn arbitrary_bytes_never_panic(
        junk in proptest::collection::vec(any::<u8>(), 0..256),
        chunks in proptest::collection::vec(1usize..32, 1..16),
    ) {
        let mut dec = FrameDecoder::new();
        let mut at = 0;
        let mut chunk_idx = 0;
        'outer: while at < junk.len() {
            let step = chunks.get(chunk_idx).copied().unwrap_or(5).clamp(1, junk.len() - at);
            chunk_idx += 1;
            dec.feed(&junk[at..at + step]);
            at += step;
            loop {
                match dec.next_frame() {
                    Ok(Some(body)) => {
                        // Both interpretations must be total on the body.
                        let _ = Request::decode(body);
                        let _ = Response::decode(body);
                    }
                    Ok(None) => break,
                    // A framing violation ends the stream, as it would
                    // end the connection.
                    Err(_) => break 'outer,
                }
            }
        }
    }

    /// Any truncation of a valid frame yields `Ok(None)` (wait for more
    /// bytes), never an error and never a phantom frame.
    #[test]
    fn truncated_frames_wait_for_more(req in request(), cut in any::<u16>()) {
        let mut wire = Vec::new();
        req.encode(&mut wire);
        let cut = (cut as usize) % wire.len(); // strictly short of complete
        let mut dec = FrameDecoder::new();
        dec.feed(&wire[..cut]);
        prop_assert_eq!(dec.next_frame(), Ok(None));
        // Completing the bytes completes the frame.
        dec.feed(&wire[cut..]);
        let body = dec.next_frame().expect("valid stream").expect("complete frame");
        prop_assert_eq!(Request::decode(body).expect("own encoding decodes"), req);
    }

    /// A hostile length prefix is rejected before any allocation of its
    /// claimed size.
    #[test]
    fn oversized_length_prefix_is_rejected(extra in 1u32..=u32::MAX - MAX_FRAME as u32) {
        let len = MAX_FRAME as u32 + extra;
        let mut dec = FrameDecoder::new();
        dec.feed(&len.to_le_bytes());
        prop_assert_eq!(dec.next_frame(), Err(ProtoError::FrameTooLarge(len as usize)));
    }

    /// No representable response encodes to a frame the decoder refuses:
    /// an over-MAX_FRAME body is replaced by a typed ERR frame, so the
    /// peer always sees a decodable response.
    #[test]
    fn encoded_responses_always_fit_max_frame(extra in 0usize..65536) {
        let resp = Response::Scan {
            tids: vec![0u64; MAX_FRAME / 8 + extra],
            token: None,
        };
        let mut wire = Vec::new();
        resp.encode(&mut wire);
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let body = dec.next_frame().expect("within MAX_FRAME").expect("complete frame");
        match Response::decode(body).expect("decodable response") {
            Response::Error { code, .. } => {
                prop_assert_eq!(code, err_code::RESPONSE_TOO_LARGE);
            }
            other => prop_assert!(false, "expected ERR replacement, got {:?}", other),
        }
    }

    /// One parser: the borrowed decoder and the owned one agree on every
    /// body — own encodings, their truncations and corruptions, plain
    /// junk — value for value and error for error, and every key the
    /// borrowed request carries is a view into the body it came from.
    #[test]
    fn borrowed_and_owned_decoders_agree(
        req in request(),
        junk in proptest::collection::vec(any::<u8>(), 0..64),
        cut in any::<u16>(),
        flip in any::<u16>(),
        flip_to in any::<u8>(),
    ) {
        let mut wire = Vec::new();
        req.encode(&mut wire);
        let body = &wire[4..];
        let mut corrupt = body.to_vec();
        corrupt[flip as usize % body.len()] = flip_to;
        let mut extended = body.to_vec();
        extended.extend_from_slice(&junk);
        let cases: [&[u8]; 5] =
            [body, &body[..cut as usize % body.len()], &corrupt, &extended, &junk];
        for bytes in cases {
            let borrowed = RequestRef::decode(bytes);
            let owned = borrowed.as_ref().map(|req| req.to_owned()).map_err(Clone::clone);
            prop_assert_eq!(owned, Request::decode(bytes));
            if let Ok(borrowed) = &borrowed {
                let mut keys = Vec::new();
                keys_of(borrowed, &mut keys);
                prop_assert!(keys.iter().all(|key| lies_within(key, bytes)));
            }
        }
        prop_assert_eq!(RequestRef::decode(body).map(|r| r.to_owned()), Ok(req));
    }

    /// The in-place encoders the server writes with produce exactly the
    /// bytes of `Response::encode` on the owned value.
    #[test]
    fn in_place_encoders_match_response_encode(
        resps in proptest::collection::vec(response(), 1..8),
    ) {
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for resp in &resps {
            resp.encode(&mut want);
            encode_in_place(resp, &mut got);
        }
        prop_assert_eq!(got, want);
    }

    /// … including the replacement of an over-`MAX_FRAME` scan page (with
    /// and without a token) by the typed ERR frame.
    #[test]
    fn in_place_oversize_replacement_matches(extra in 0usize..4096, token in token(), more in any::<bool>()) {
        let resp = Response::Scan {
            tids: vec![7u64; MAX_FRAME / 8 + extra],
            token: more.then_some(token),
        };
        let (mut want, mut got) = (Vec::new(), Vec::new());
        resp.encode(&mut want);
        encode_in_place(&resp, &mut got);
        prop_assert!(want.len() < 200, "replaced by a short ERR frame");
        prop_assert_eq!(got, want);
    }

    /// A frame stream read through `fill_from` at arbitrary read sizes —
    /// frames drained after every read, so the buffer compacts, and some
    /// of them larger than the buffer starts out, so it grows — yields
    /// the same bodies as one `feed` of the whole stream.
    #[test]
    fn fill_from_yields_the_same_frames_as_feed(
        small in proptest::collection::vec(response(), 1..40),
        big in proptest::collection::vec(20_000usize..60_000, 0..3),
        sizes in proptest::collection::vec(1usize..70_000, 1..48),
        drain_every in 1usize..4,
    ) {
        let mut wire = Vec::new();
        for (i, resp) in small.iter().enumerate() {
            resp.encode(&mut wire);
            if let Some(&tids) = big.get(i) {
                Response::Scan { tids: vec![i as u64; tids / 8], token: None }.encode(&mut wire);
            }
        }
        let mut whole = FrameDecoder::new();
        whole.feed(&wire);
        let mut want = Vec::new();
        while let Some(body) = whole.next_frame().expect("valid stream") {
            want.push(body.to_vec());
        }

        let mut dec = FrameDecoder::new();
        let mut src = ChunkedReader { data: &wire, sizes: sizes.iter() };
        let mut got = Vec::new();
        let mut reads = 0;
        while dec.fill_from(&mut src).expect("infallible reader") > 0 {
            reads += 1;
            if reads % drain_every == 0 {
                // Views of one drain are held together, like a window.
                let bodies: Vec<&[u8]> =
                    dec.frames().collect::<Result<_, _>>().expect("valid stream");
                got.extend(bodies.iter().map(|body| body.to_vec()));
            }
        }
        while let Some(body) = dec.next_frame().expect("valid stream") {
            got.push(body.to_vec());
        }
        prop_assert_eq!(dec.pending(), 0);
        prop_assert_eq!(got, want);
    }
}

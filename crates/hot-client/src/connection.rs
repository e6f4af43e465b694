//! The client connection handle: buffered writes, incremental reads.

use hot_server::protocol::{FrameDecoder, Request, Response};
use std::io::{ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One TCP connection to a hot-server, with a write buffer for pipelining
/// and an incremental frame decoder — which owns the read buffer — for
/// the response stream.
pub struct Connection {
    stream: TcpStream,
    decoder: FrameDecoder,
    wbuf: Vec<u8>,
}

impl Connection {
    /// Connect and disable Nagle (pipelined request windows are flushed
    /// explicitly; delaying them only adds latency).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            stream,
            decoder: FrameDecoder::new(),
            wbuf: Vec::with_capacity(16 << 10),
        })
    }

    /// Queue a request in the write buffer (nothing hits the socket until
    /// [`flush`](Self::flush)).
    pub fn send(&mut self, req: &Request) {
        req.encode(&mut self.wbuf);
    }

    /// Write every queued request to the socket.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if !self.wbuf.is_empty() {
            self.stream.write_all(&self.wbuf)?;
            self.wbuf.clear();
        }
        Ok(())
    }

    /// Block for the next response frame.
    pub fn recv(&mut self) -> std::io::Result<Response> {
        loop {
            match self.decoder.next_frame() {
                Ok(Some(body)) => {
                    return Response::decode(body)
                        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e));
                }
                Ok(None) => {}
                Err(e) => return Err(std::io::Error::new(ErrorKind::InvalidData, e)),
            }
            if self.decoder.fill_from(&mut self.stream)? == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
        }
    }

    /// Strict request–response: send, flush, wait for the answer.
    pub fn call(&mut self, req: &Request) -> std::io::Result<Response> {
        self.send(req);
        self.flush()?;
        self.recv()
    }

    /// Clone the underlying stream (open-loop driving splits send and
    /// receive across threads).
    pub fn try_clone_stream(&self) -> std::io::Result<TcpStream> {
        self.stream.try_clone()
    }

    /// Ask the server to shut down cleanly.
    pub fn shutdown_server(&mut self) -> std::io::Result<Response> {
        self.call(&Request::Shutdown)
    }
}

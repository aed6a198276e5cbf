//! The byte-stream abstraction under the transport: TCP or Unix-domain.
//!
//! Everything above this module speaks frames over an ordered, reliable
//! byte stream; this module is the only place that knows whether the
//! stream is a TCP socket or a Unix-domain socket. Both are `std`
//! networking — the workspace builds offline, so no async runtime or
//! socket crate is involved.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

#[cfg(unix)]
use std::os::unix::net::UnixStream;
#[cfg(unix)]
use std::path::Path;

/// One connected byte stream, TCP or Unix-domain.
#[derive(Debug)]
pub enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    /// Connects over TCP.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<Stream> {
        let stream = TcpStream::connect(addr)?;
        // Wave frames are latency-sensitive and written in one buffered
        // burst; Nagle only adds delay.
        stream.set_nodelay(true)?;
        Ok(Stream::Tcp(stream))
    }

    /// Connects over a Unix-domain socket.
    #[cfg(unix)]
    pub fn connect_uds(path: impl AsRef<Path>) -> io::Result<Stream> {
        Ok(Stream::Unix(UnixStream::connect(path)?))
    }

    /// Sets (or clears) the read timeout.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    /// Sets (or clears) the write timeout. A peer that stops reading
    /// makes writes error out instead of blocking forever.
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(timeout),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_write_timeout(timeout),
        }
    }

    /// The peer address, for diagnostics.
    pub fn peer_label(&self) -> String {
        match self {
            Stream::Tcp(s) => s
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "tcp:?".into()),
            #[cfg(unix)]
            Stream::Unix(_) => "uds".into(),
        }
    }

    /// Shuts both directions down, unblocking any reader on the peer.
    pub fn shutdown(&self) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            Stream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Whether an I/O error is a read-timeout (both kinds occur depending on
/// platform) rather than a real failure.
pub(crate) fn is_timeout(error: &io::Error) -> bool {
    matches!(
        error.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

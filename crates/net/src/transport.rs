//! Address parsing and a single stream/listener abstraction over TCP and
//! Unix-domain sockets.
//!
//! Addresses use one syntax everywhere (`--listen`, `--connect`, the bench
//! harness): `unix:<path>` selects a Unix-domain socket, anything else is a
//! TCP `host:port`. `host:0` binds an ephemeral port;
//! [`Listener::local_addr`] reports the resolved address so tests and the
//! CLI can hand it to clients.
//!
//! The crate builds for unix only (see its root), so both families exist
//! wherever it compiles and every `raw_fd` is a real fd for [`crate::poll`].

use crate::NetError;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// A collector endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    /// TCP `host:port`.
    Tcp(String),
    /// Unix-domain socket path.
    Unix(PathBuf),
}

impl Addr {
    /// Parse `unix:<path>` or `host:port`.
    pub fn parse(s: &str) -> Result<Addr, NetError> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(NetError::Addr("empty unix socket path".into()));
            }
            return Ok(Addr::Unix(PathBuf::from(path)));
        }
        // Validate host:port shape early so `serve --listen garbage` fails
        // with a clear message instead of a bind error.
        match s.rsplit_once(':') {
            Some((host, port)) if !host.is_empty() && port.parse::<u16>().is_ok() => {
                Ok(Addr::Tcp(s.to_string()))
            }
            _ => Err(NetError::Addr(format!(
                "expected host:port or unix:<path>, got {s:?}"
            ))),
        }
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Tcp(hp) => f.write_str(hp),
            Addr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// A bound server socket.
pub enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl Listener {
    pub fn bind(addr: &Addr) -> Result<Listener, NetError> {
        match addr {
            Addr::Tcp(hp) => Ok(Listener::Tcp(TcpListener::bind(hp)?)),
            Addr::Unix(path) => {
                // A stale socket file from a crashed collector would make
                // bind fail; remove it (connect() to a dead socket errors,
                // so this cannot steal a live endpoint's clients silently).
                let _ = std::fs::remove_file(path);
                Ok(Listener::Unix(UnixListener::bind(path)?, path.clone()))
            }
        }
    }

    /// The resolved local address in [`Addr::parse`] syntax.
    pub fn local_addr(&self) -> Result<Addr, NetError> {
        match self {
            Listener::Tcp(l) => Ok(Addr::Tcp(l.local_addr()?.to_string())),
            Listener::Unix(_, path) => Ok(Addr::Unix(path.clone())),
        }
    }

    pub fn set_nonblocking(&self, nb: bool) -> Result<(), NetError> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb)?,
            Listener::Unix(l, _) => l.set_nonblocking(nb)?,
        }
        Ok(())
    }

    pub fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                // Nagle + delayed-ACK interact badly with the protocol's
                // small ack frames (a ~40 ms floor per FinAck on Linux);
                // every accepted TCP stream runs with TCP_NODELAY.
                let _ = s.set_nodelay(true);
                Ok(Stream::Tcp(s))
            }
            Listener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                Ok(Stream::Unix(s))
            }
        }
    }

    /// The raw fd for readiness polling (see [`crate::poll`]).
    pub fn raw_fd(&self) -> crate::poll::RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l, _) => l.as_raw_fd(),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A connected socket, either family.
pub enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    /// Connect with a timeout (TCP resolves then uses `connect_timeout`;
    /// Unix connects are local and effectively immediate).
    pub fn connect(addr: &Addr, timeout: Duration) -> Result<Stream, NetError> {
        match addr {
            Addr::Tcp(hp) => {
                let mut last = None;
                for sa in hp.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&sa, timeout) {
                        Ok(s) => {
                            // Same rationale as in `Listener::accept`: the
                            // client's Finish frame is small and latency-
                            // critical, so Nagle is disabled on every
                            // outbound TCP stream too.
                            let _ = s.set_nodelay(true);
                            return Ok(Stream::Tcp(s));
                        }
                        Err(e) => last = Some(e),
                    }
                }
                Err(match last {
                    Some(e) => NetError::Io(e),
                    None => NetError::Addr(format!("{hp} resolved to no addresses")),
                })
            }
            Addr::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
        }
    }

    /// Apply one per-request timeout to both read and write.
    pub fn set_io_timeout(&self, timeout: Duration) -> Result<(), NetError> {
        let t = Some(timeout);
        match self {
            Stream::Tcp(s) => {
                s.set_read_timeout(t)?;
                s.set_write_timeout(t)?;
            }
            Stream::Unix(s) => {
                s.set_read_timeout(t)?;
                s.set_write_timeout(t)?;
            }
        }
        Ok(())
    }

    /// Switch between blocking and nonblocking I/O (the collector's event
    /// loops run every accepted stream nonblocking).
    pub fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(nb),
            Stream::Unix(s) => s.set_nonblocking(nb),
        }
    }

    /// The raw fd for readiness polling (see [`crate::poll`]).
    pub fn raw_fd(&self) -> crate::poll::RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }

    /// Best-effort full shutdown (used after the drain handshake).
    pub fn shutdown(&self) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Stream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_tcp_and_unix() {
        assert_eq!(
            Addr::parse("127.0.0.1:9000").unwrap(),
            Addr::Tcp("127.0.0.1:9000".into())
        );
        assert_eq!(
            Addr::parse("unix:/tmp/x.sock").unwrap(),
            Addr::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert!(Addr::parse("no-port").is_err());
        assert!(Addr::parse(":123").is_err());
        assert!(Addr::parse("host:notaport").is_err());
        assert!(Addr::parse("unix:").is_err());
    }

    #[test]
    fn display_round_trips() {
        for s in ["127.0.0.1:8080", "unix:/tmp/cypress.sock"] {
            assert_eq!(Addr::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn ephemeral_tcp_bind_reports_port() {
        let l = Listener::bind(&Addr::parse("127.0.0.1:0").unwrap()).unwrap();
        let Addr::Tcp(hp) = l.local_addr().unwrap() else {
            panic!("tcp expected")
        };
        let port: u16 = hp.rsplit_once(':').unwrap().1.parse().unwrap();
        assert_ne!(port, 0);
    }

    #[test]
    fn unix_listener_cleans_up_socket_file() {
        let path = std::env::temp_dir().join(format!("cypress-net-{}.sock", std::process::id()));
        let addr = Addr::Unix(path.clone());
        {
            let _l = Listener::bind(&addr).unwrap();
            assert!(path.exists());
        }
        assert!(!path.exists(), "socket file must be removed on drop");
    }
}

//! The UDP carrier's syscalls where `sendmmsg`/`recvmmsg` are not declared:
//! one `send` or `recv` per datagram, behind the same interface as the
//! batched `sys` path (built on Linux for the test that compares the two).

use std::io;
use std::net::UdpSocket;

/// Sends one frame per call (braced, so it is built like the batched
/// path's `SendBatch::default()`).
#[derive(Debug, Default)]
pub(super) struct SendBatch {}

impl SendBatch {
    /// Sends the first of `frames` on the connected `socket`, returning 1
    /// (0 when there is none).
    pub(super) fn send<'a>(
        &mut self,
        socket: &UdpSocket,
        mut frames: impl Iterator<Item = &'a [u8]>,
    ) -> io::Result<usize> {
        frames.next().map_or(Ok(0), |f| socket.send(f).map(|_| 1))
    }
}

/// One receive buffer of the largest datagram accepted.
#[derive(Debug)]
pub(super) struct RecvRing {
    rx: Box<[u8]>,
    len: Option<usize>,
}

impl RecvRing {
    /// A one-slot ring of `datagram` bytes (`slots` and `head` shape the
    /// batched ring only).
    pub(super) fn new(slots: usize, head: usize, datagram: usize) -> Self {
        let _ = (slots, head);
        RecvRing {
            rx: vec![0u8; datagram].into_boxed_slice(),
            len: None,
        }
    }

    /// Always 1: one `recv` per datagram.
    pub(super) fn slots(&self) -> usize {
        1
    }

    /// Reads one waiting datagram (`WouldBlock` when none was waiting).
    pub(super) fn recv(&mut self, socket: &UdpSocket, max: usize) -> io::Result<usize> {
        let _ = max;
        self.len = None;
        self.len = Some(socket.recv(&mut self.rx)?);
        Ok(1)
    }

    /// The datagram the last [`recv`](Self::recv) read, as the same
    /// head/tail pair the batched ring returns (the tail is empty).
    pub(super) fn datagram(&self, i: usize) -> Option<[&[u8]; 2]> {
        let len = self.len.filter(|_| i == 0)?;
        Some([self.rx.get(..len)?, &[]])
    }
}

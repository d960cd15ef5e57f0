//! Batched datagram syscalls for the Linux UDP carrier: `sendmmsg` and
//! `recvmmsg`, hand-declared because the workspace builds without a `libc`
//! crate. This is the only module of the workspace that uses `unsafe`.
//!
//! Both wrappers keep their header arrays across calls. [`SendBatch`] fills
//! a reused `mmsghdr`/`iovec` array per call and empties it before
//! returning, so no pointer outlives the frames it names. [`RecvRing`]
//! builds its headers once: each slot scatters into a small *head* packed
//! beside its neighbours and then a *tail* that only a long datagram
//! reaches, so no datagram up to the slot size is truncated and the pages
//! the kernel touches stay proportional to the bytes it delivers.

#![expect(
    unsafe_code,
    reason = "FFI to sendmmsg/recvmmsg over hand-declared mmsghdr/msghdr/iovec layouts; \
              every unsafe block states the invariant it relies on"
)]

use std::ffi::{c_int, c_uint, c_void};
use std::io;
use std::net::UdpSocket;
use std::os::fd::AsRawFd;
use std::ptr;

/// `struct iovec`.
#[repr(C)]
#[derive(Debug)]
struct IoVec {
    base: *mut c_void,
    len: usize,
}

/// `struct msghdr` as the kernel reads it (`msg_iovlen` and
/// `msg_controllen` are `size_t`-wide on every Linux ABI).
#[repr(C)]
#[derive(Debug)]
struct MsgHdr {
    name: *mut c_void,
    namelen: u32,
    iov: *mut IoVec,
    iovlen: usize,
    control: *mut c_void,
    controllen: usize,
    flags: c_int,
}

/// `struct mmsghdr`: one message and the byte count the call reports for it.
#[repr(C)]
#[derive(Debug)]
struct MMsgHdr {
    hdr: MsgHdr,
    len: c_uint,
}

impl MMsgHdr {
    /// A header over `iovlen` iovecs at `iov`, with no address (the send
    /// sockets are connected; the receive path ignores the source) and no
    /// control data.
    fn new(iov: *mut IoVec, iovlen: usize) -> Self {
        MMsgHdr {
            hdr: MsgHdr {
                name: ptr::null_mut(),
                namelen: 0,
                iov,
                iovlen,
                control: ptr::null_mut(),
                controllen: 0,
                flags: 0,
            },
            len: 0,
        }
    }
}

/// `msg_flags` bit: the datagram was longer than the buffers offered.
const MSG_TRUNC: c_int = 0x20;

extern "C" {
    fn sendmmsg(fd: c_int, msgvec: *mut MMsgHdr, vlen: c_uint, flags: c_int) -> c_int;
    fn recvmmsg(
        fd: c_int,
        msgvec: *mut MMsgHdr,
        vlen: c_uint,
        flags: c_int,
        timeout: *mut c_void,
    ) -> c_int;
}

/// A syscall's datagram count, or the errno it set.
fn count(ret: c_int) -> io::Result<usize> {
    usize::try_from(ret).map_err(|_| io::Error::last_os_error())
}

/// Reused `sendmmsg` arrays; empty between calls.
#[derive(Debug, Default)]
pub(super) struct SendBatch {
    msgs: Vec<MMsgHdr>,
    iovs: Vec<IoVec>,
}

// SAFETY: the arrays are empty outside `send`, so a `SendBatch` that moves
// to another thread carries no pointer.
unsafe impl Send for SendBatch {}

impl SendBatch {
    /// Sends `frames` as consecutive datagrams on the connected `socket`
    /// in one `sendmmsg`, returning how many left. A count short of the
    /// frames offered means the next frame failed (its error is not
    /// reported) or the kernel's per-call cap was reached; an error means
    /// the *first* frame failed.
    pub(super) fn send<'a>(
        &mut self,
        socket: &UdpSocket,
        frames: impl Iterator<Item = &'a [u8]>,
    ) -> io::Result<usize> {
        self.iovs.extend(frames.map(|f| IoVec {
            base: f.as_ptr().cast_mut().cast(),
            len: f.len(),
        }));
        let iov = self.iovs.as_mut_ptr();
        self.msgs
            .extend((0..self.iovs.len()).map(|i| MMsgHdr::new(iov.wrapping_add(i), 1)));
        let vlen = c_uint::try_from(self.msgs.len()).unwrap_or(c_uint::MAX);
        // SAFETY: `msgs` holds `vlen` initialised headers, each naming one
        // iovec in `iovs` (neither vector grows after its pointer is
        // taken), and every iovec spans a live `&[u8]` borrowed for this
        // call. The kernel only reads them.
        let ret = unsafe { sendmmsg(socket.as_raw_fd(), self.msgs.as_mut_ptr(), vlen, 0) };
        self.msgs.clear();
        self.iovs.clear();
        match count(ret)? {
            0 if vlen > 0 => Err(io::ErrorKind::WriteZero.into()),
            n => Ok(n),
        }
    }
}

/// A `recvmmsg` ring: `slots` datagrams of up to `head + tail` bytes each,
/// headers and iovecs built once.
#[derive(Debug)]
pub(super) struct RecvRing {
    msgs: Vec<MMsgHdr>,
    /// Two per slot, head then tail.
    #[expect(
        dead_code,
        reason = "owns the iovecs `msgs` points to; only the kernel reads them"
    )]
    iovs: Vec<IoVec>,
    /// Capacity only (length 0): the slots' heads packed first, then their
    /// tails. Rust reads back just the bytes a `recvmmsg` reported.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    /// Slots the last [`recv`](Self::recv) filled.
    filled: usize,
}

// SAFETY: every pointer in `msgs` and `iovs` points into `iovs` or `buf`,
// heap allocations the ring owns and never resizes, so they move with it.
unsafe impl Send for RecvRing {}

impl RecvRing {
    /// A ring of `slots` slots that each hold a datagram of up to
    /// `datagram` bytes, the first `head` of them in the packed region.
    pub(super) fn new(slots: usize, head: usize, datagram: usize) -> Self {
        let head = head.min(datagram);
        let tail = datagram - head;
        // Saturating: an impossible size makes the allocation panic instead
        // of wrapping to a buffer smaller than the iovecs below describe.
        // Every offset below is then within `slots * datagram`.
        let mut buf = Vec::<u8>::with_capacity(slots.saturating_mul(datagram));
        let base = buf.as_mut_ptr();
        let mut iovs = Vec::with_capacity(2 * slots);
        for i in 0..slots {
            iovs.push(IoVec {
                base: base.wrapping_add(i * head).cast(),
                len: head,
            });
            iovs.push(IoVec {
                base: base.wrapping_add(slots * head + i * tail).cast(),
                len: tail,
            });
        }
        let iov = iovs.as_mut_ptr();
        let msgs = (0..slots)
            .map(|i| MMsgHdr::new(iov.wrapping_add(2 * i), 2))
            .collect();
        RecvRing {
            msgs,
            iovs,
            buf,
            head,
            tail,
            filled: 0,
        }
    }

    /// Datagrams one [`recv`](Self::recv) can return.
    pub(super) fn slots(&self) -> usize {
        self.msgs.len()
    }

    /// Reads up to `max` waiting datagrams from the nonblocking `socket`
    /// in one `recvmmsg`, returning how many arrived (`WouldBlock` when
    /// none was waiting). A count short of `max` means the socket drained.
    pub(super) fn recv(&mut self, socket: &UdpSocket, max: usize) -> io::Result<usize> {
        self.filled = 0;
        let vlen = c_uint::try_from(max.min(self.slots())).unwrap_or(c_uint::MAX);
        // SAFETY: the first `vlen` headers are initialised and each names
        // two iovecs in `iovs`, which span disjoint ranges inside `buf`'s
        // capacity; `buf` and `iovs` are never resized after `new`. The
        // kernel writes only into those ranges and the headers' `len` and
        // `flags` fields.
        let ret = unsafe {
            recvmmsg(
                socket.as_raw_fd(),
                self.msgs.as_mut_ptr(),
                vlen,
                0,
                ptr::null_mut(),
            )
        };
        self.filled = count(ret)?;
        Ok(self.filled)
    }

    /// The `i`th datagram of the last [`recv`](Self::recv) as its head and
    /// tail parts, or `None` when it came back truncated (or `i` is past
    /// the datagrams that call returned).
    pub(super) fn datagram(&self, i: usize) -> Option<[&[u8]; 2]> {
        let msg = self.msgs.get(i).filter(|_| i < self.filled)?;
        if msg.hdr.flags & MSG_TRUNC != 0 {
            return None;
        }
        let len = usize::try_from(msg.len).map_or(0, |n| n.min(self.head + self.tail));
        let in_head = len.min(self.head);
        let head_at = i * self.head;
        let tail_at = self.slots() * self.head + i * self.tail;
        // SAFETY: both ranges lie inside `buf`'s capacity (slot `i` of the
        // head and tail regions, clipped to their sizes), and the
        // `recvmmsg` that returned slot `i` wrote its first `len` bytes
        // there: `in_head` into the head, the rest into the tail.
        Some(unsafe {
            [
                std::slice::from_raw_parts(self.buf.as_ptr().add(head_at), in_head),
                std::slice::from_raw_parts(self.buf.as_ptr().add(tail_at), len - in_head),
            ]
        })
    }
}

#[cfg(all(test, target_pointer_width = "64"))]
mod tests {
    use super::*;
    use std::mem::{align_of, offset_of, size_of};

    #[test]
    fn hand_declared_structs_match_the_lp64_linux_layout() {
        assert_eq!((size_of::<IoVec>(), align_of::<IoVec>()), (16, 8));
        assert_eq!((offset_of!(IoVec, base), offset_of!(IoVec, len)), (0, 8));

        assert_eq!((size_of::<MsgHdr>(), align_of::<MsgHdr>()), (56, 8));
        let fields = [
            offset_of!(MsgHdr, name),
            offset_of!(MsgHdr, namelen),
            offset_of!(MsgHdr, iov),
            offset_of!(MsgHdr, iovlen),
            offset_of!(MsgHdr, control),
            offset_of!(MsgHdr, controllen),
            offset_of!(MsgHdr, flags),
        ];
        assert_eq!(fields, [0, 8, 16, 24, 32, 40, 48]);

        assert_eq!((size_of::<MMsgHdr>(), align_of::<MMsgHdr>()), (64, 8));
        assert_eq!(
            (offset_of!(MMsgHdr, hdr), offset_of!(MMsgHdr, len)),
            (0, 56)
        );
    }
}

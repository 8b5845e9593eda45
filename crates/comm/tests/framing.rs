//! Loopback framing properties: the length-prefixed, CRC-trailed framer
//! must round-trip payloads of *any* size — empty, single-byte,
//! MTU-straddling, and multi-megabyte fused buckets — with no
//! short-read/short-write truncation, over a real kernel TCP socket.

use grace_comm::net::{FramedStream, KIND_ALLGATHER};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;

/// Counts the bytes each thread asks the allocator for (the counting
/// allocator of `tests/telemetry_alloc.rs`, by size instead of by call), so
/// a test can bound what one `read_frame` allocates.
struct CountingAlloc;

std::thread_local! {
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn bytes_allocated_on_this_thread() -> u64 {
    ALLOC_BYTES.with(|c| c.get())
}

fn count(layout: Layout) {
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + layout.size() as u64));
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter is a const-initialized thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The most a frame body may grow ahead of the bytes that have arrived.
const READ_CHUNK: u64 = 1 << 20;

/// Serves `bytes` on a fresh loopback connection and then closes it.
fn serve_then_close(bytes: Vec<u8>) -> (FramedStream, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        stream.write_all(&bytes).expect("server write");
    });
    let client = FramedStream::tcp(TcpStream::connect(addr).expect("connect"));
    (client, server)
}

/// One echo round trip over a fresh loopback pair; returns what came back.
fn echo_roundtrip(payloads: Vec<Vec<u8>>) -> Vec<(u8, Vec<u8>)> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let count = payloads.len();
    let server = thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut framed = FramedStream::tcp(stream);
        for _ in 0..count {
            let (kind, body) = framed.read_frame().expect("server read");
            framed.write_frame(kind, &body).expect("server write");
        }
    });
    let mut client = FramedStream::tcp(TcpStream::connect(addr).expect("connect"));
    let mut out = Vec::with_capacity(count);
    for p in &payloads {
        client.write_frame(KIND_ALLGATHER, p).expect("client write");
        out.push(client.read_frame().expect("client read"));
    }
    server.join().expect("server thread");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary payloads in arbitrary sequence round-trip byte-exact.
    #[test]
    fn arbitrary_payloads_round_trip_exactly(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..4096),
            1..5,
        ),
    ) {
        let echoed = echo_roundtrip(payloads.clone());
        prop_assert_eq!(echoed.len(), payloads.len());
        for (sent, (kind, got)) in payloads.iter().zip(&echoed) {
            prop_assert_eq!(*kind, KIND_ALLGATHER);
            prop_assert_eq!(got, sent);
        }
    }
}

/// The boundary sizes the proptest's uniform draw is unlikely to hit
/// exactly: empty, one byte, either side of a 1500-byte Ethernet MTU (the
/// frame adds 9 bytes of overhead), and a bucket larger than the 2 MiB
/// default fusion threshold — proving multi-`write(2)` frames reassemble
/// without truncation.
#[test]
fn boundary_sizes_round_trip_exactly() {
    let mtu_body = 1500usize - 9;
    let sizes = [
        0usize,
        1,
        mtu_body - 1,
        mtu_body,
        mtu_body + 1,
        3 << 20, // > DEFAULT_FUSION_BYTES (2 MiB)
    ];
    let payloads: Vec<Vec<u8>> = sizes
        .iter()
        .map(|&n| (0..n).map(|i| (i * 31 % 251) as u8).collect())
        .collect();
    let echoed = echo_roundtrip(payloads.clone());
    for (sent, (kind, got)) in payloads.iter().zip(&echoed) {
        assert_eq!(*kind, KIND_ALLGATHER);
        assert_eq!(got.len(), sent.len(), "length truncated");
        assert_eq!(got, sent, "bytes corrupted in flight");
    }
}

/// Every write is `write_all` and every read is `read_exact`: killing the
/// peer mid-frame surfaces an error, never a silently short frame.
#[test]
fn torn_stream_is_an_error_not_a_short_read() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // A frame header promising 64 KiB, then only 10 bytes, then EOF.
        let mut partial = Vec::new();
        partial.extend_from_slice(&(65536u32).to_le_bytes());
        partial.extend_from_slice(&[KIND_ALLGATHER; 10]);
        stream.write_all(&partial).unwrap();
        drop(stream);
    });
    let mut client = FramedStream::tcp(TcpStream::connect(addr).unwrap());
    let err = client.read_frame().expect_err("truncated frame must error");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    server.join().unwrap();
}

/// A length prefix claiming 1 GiB (the largest the framer accepts, as a
/// flipped high bit would) followed by a few bytes and EOF: the read is a
/// typed EOF error, and the body buffer never grew past one read chunk.
#[test]
fn gigabyte_length_prefix_then_eof_is_a_typed_error_with_bounded_allocation() {
    let mut stream = Vec::new();
    stream.extend_from_slice(&(1u32 << 30).to_le_bytes());
    stream.push(KIND_ALLGATHER);
    stream.extend_from_slice(&[0xA5; 100]);
    let (mut client, server) = serve_then_close(stream);
    let before = bytes_allocated_on_this_thread();
    let err = client
        .read_frame()
        .expect_err("a torn 1 GiB frame must error");
    let allocated = bytes_allocated_on_this_thread() - before;
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    assert!(
        allocated <= READ_CHUNK + 4096,
        "read_frame allocated {allocated} bytes for a frame that sent 100"
    );
    server.join().unwrap();
}

/// A length prefix past the 1 GiB cap is rejected as `InvalidData` before
/// any body byte is read or allocated.
#[test]
fn length_prefix_past_the_cap_is_invalid_data() {
    let mut stream = Vec::new();
    stream.extend_from_slice(&u32::MAX.to_le_bytes());
    stream.push(KIND_ALLGATHER);
    let (mut client, server) = serve_then_close(stream);
    let err = client
        .read_frame()
        .expect_err("an oversized prefix must error");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    server.join().unwrap();
}

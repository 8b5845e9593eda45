//! Host references measured in the same invocation as the workload: raw
//! loopback TCP throughput through `std::net`, and the process's peak
//! resident memory.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

/// Bytes one loopback trial streams.
const TRIAL_BYTES: usize = 64 << 20;
/// Trials; the median is reported.
const TRIALS: usize = 5;
const CHUNK: usize = 64 << 10;

/// Raw loopback TCP throughput in Gbit/s: one sender thread streams
/// [`TRIAL_BYTES`] to a reader on `127.0.0.1`; the median of [`TRIALS`].
///
/// # Errors
///
/// Returns the I/O error of a failed bind, connect, read or write.
pub fn loopback_gbps() -> std::io::Result<f64> {
    let mut rates = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        rates.push(loopback_trial()?);
    }
    Ok(crate::split::median(&rates))
}

fn loopback_trial() -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        let sender = s.spawn(move || -> std::io::Result<()> {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let chunk = vec![0xA5u8; CHUNK];
            for _ in 0..TRIAL_BYTES / CHUNK {
                stream.write_all(&chunk)?;
            }
            Ok(())
        });
        let (mut stream, _) = listener.accept()?;
        let mut buf = vec![0u8; CHUNK];
        let mut received = 0usize;
        while received < TRIAL_BYTES {
            match stream.read(&mut buf)? {
                0 => break,
                n => received += n,
            }
        }
        let secs = start.elapsed().as_secs_f64();
        sender.join().expect("loopback sender panicked")?;
        if received != TRIAL_BYTES {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("loopback delivered {received} of {TRIAL_BYTES} bytes"),
            ));
        }
        Ok(received as f64 * 8.0 / secs / 1e9)
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is unreadable or has no
/// `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

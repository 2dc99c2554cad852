//! The measured pass: a `ddpa-serve` server in this process, driven over
//! loopback TCP by one closed-loop client per stream.
//!
//! Request lines are rendered before the clock starts; each request's
//! clock brackets only [`Client::roundtrip_line`]. Responses are kept for
//! checking after the pass.

use std::io;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ddpa_obs::Obs;
use ddpa_serve::{Client, ServeConfig, Server, ServerHandle};

use crate::alloc;
use crate::check::Collector;
use crate::speed::Speed;
use crate::traffic::{Op, Traffic};

/// Round-trip latencies of the measured phase, in reference-host
/// nanoseconds (see [`crate::speed`]).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    pub query: Vec<u64>,
    pub batch: Vec<u64>,
    pub edit: Vec<u64>,
    pub open: Vec<u64>,
    /// From sending `open` (through `restore`, where present) to the first
    /// answer on the new session.
    pub first_answer: Vec<u64>,
    /// Sum of the raw round trips of every measured request, and their
    /// count.
    pub raw_ns: u128,
    pub requests: u64,
    /// Reference-task probes, raw nanoseconds.
    pub probes: Vec<u64>,
}

impl Samples {
    fn extend(&mut self, other: Samples) {
        self.query.extend(other.query);
        self.batch.extend(other.batch);
        self.edit.extend(other.edit);
        self.open.extend(other.open);
        self.first_answer.extend(other.first_answer);
        self.raw_ns += other.raw_ns;
        self.requests += other.requests;
        self.probes.extend(other.probes);
    }
}

/// What the measured pass saw.
pub struct SocketPass {
    /// Server start (the median of [`STARTS`]) plus the set-up requests'
    /// round trips, in reference-host time.
    pub setup: Duration,
    /// Wall time of the measured phase in reference-host time, probes
    /// excluded (the longest stream's).
    pub wall: Duration,
    /// A stream hit the time cap before sending all its requests.
    pub truncated: bool,
    pub samples: Samples,
    pub responses: Collector,
    /// `VmHWM` of this process when the measured phase ended, in KiB,
    /// reset to the resident set just before the phase began.
    pub peak_rss_kib: u64,
    /// Heap allocations and bytes requested during the measured phase.
    pub allocs: (u64, u64),
    /// Count and sum (µs) of `server.latency.request_us` samples recorded
    /// during the measured phase.
    pub dispatch: (u64, u64),
    /// Frame-scheduler steals and parks during the measured phase.
    pub sched: (u64, u64),
}

/// Stops the server and joins its thread on every exit path.
struct Running {
    handle: ServerHandle,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Drop for Running {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Server starts timed per pass. One start takes well under a millisecond,
/// so set-up counts the median of several: the last starts the server the
/// pass uses, the others are stopped at once.
const STARTS: usize = 5;

/// Starts a server on `127.0.0.1:0` and connects `conns` clients to it.
fn start(config: &ServeConfig, obs: Obs, conns: usize) -> io::Result<(Running, Vec<Client>)> {
    let server = Server::bind("127.0.0.1:0", config.clone(), obs)?;
    let addr = server.local_addr();
    let running = Running {
        handle: server.handle(),
        thread: Some(std::thread::spawn(move || server.run())),
    };
    let clients = (0..conns)
        .map(|_| Client::connect(addr))
        .collect::<io::Result<Vec<_>>>()?;
    Ok((running, clients))
}

/// Runs `traffic` against a fresh server; a stream stops early once the
/// measured phase has lasted `cap`.
pub fn run(traffic: &Traffic, cap: Duration) -> io::Result<SocketPass> {
    let obs = Obs::new();
    let config = ServeConfig {
        workers: traffic.workers,
        ..ServeConfig::default()
    };
    let conns = traffic.streams.len().max(1);
    let mut speed = Speed::new();
    let mut starts = Vec::with_capacity(STARTS);
    for _ in 1..STARTS {
        let sent = Instant::now();
        let (running, clients) = start(&config, Obs::new(), conns)?;
        starts.push(speed.scale(nanos(sent.elapsed())));
        drop(clients);
        drop(running);
    }
    let sent = Instant::now();
    let (_running, mut clients) = start(&config, obs.clone(), conns)?;
    starts.push(speed.scale(nanos(sent.elapsed())));
    starts.sort_unstable();
    let mut setup_ns = starts[STARTS / 2];

    let mut responses = Collector::default();
    for &i in &traffic.setup {
        if speed.due() {
            speed.refresh();
        }
        let sent = Instant::now();
        let line = clients[0].roundtrip_line(&traffic.requests[i as usize].line)?;
        setup_ns += speed.scale(nanos(sent.elapsed()));
        responses.add(i, line, false);
    }

    reset_peak_rss();
    let dispatch = obs.histogram("server.latency.request_us");
    let (steals, parked) = (
        obs.counter("demand.sched.steals"),
        obs.counter("demand.sched.parked"),
    );
    let before = (dispatch.count(), dispatch.sum(), steals.get(), parked.get());
    let allocs_before = alloc::totals();
    let started = Instant::now();
    let streams: Vec<io::Result<Stream>> = std::thread::scope(|scope| {
        let running: Vec<_> = clients
            .iter_mut()
            .zip(&traffic.streams)
            .map(|(client, stream)| {
                scope.spawn(move || drive(client, traffic, stream, started, cap))
            })
            .collect();
        running
            .into_iter()
            .map(|t| t.join().expect("client threads do not panic"))
            .collect()
    });
    let peak_rss_kib = peak_rss_kib();
    let allocs_after = alloc::totals();

    let mut samples = Samples::default();
    let mut truncated = false;
    let mut wall = Duration::ZERO;
    for stream in streams {
        let stream = stream?;
        wall = wall.max(stream.wall);
        samples.extend(stream.samples);
        truncated |= stream.truncated;
        responses.extend(stream.responses);
    }
    for &i in &traffic.teardown {
        let line = clients[0].roundtrip_line(&traffic.requests[i as usize].line)?;
        responses.add(i, line, false);
    }
    Ok(SocketPass {
        setup: Duration::from_nanos(setup_ns),
        wall,
        truncated,
        samples,
        responses,
        peak_rss_kib,
        allocs: (
            allocs_after.0 - allocs_before.0,
            allocs_after.1 - allocs_before.1,
        ),
        dispatch: (dispatch.count() - before.0, dispatch.sum() - before.1),
        sched: (steals.get() - before.2, parked.get() - before.3),
    })
}

struct Stream {
    samples: Samples,
    wall: Duration,
    truncated: bool,
    responses: Collector,
}

/// Sends one stream closed-loop: each request waits for the previous
/// answer.
fn drive(
    client: &mut Client,
    traffic: &Traffic,
    stream: &[u32],
    started: Instant,
    cap: Duration,
) -> io::Result<Stream> {
    let mut out = Stream {
        samples: Samples::default(),
        wall: Duration::ZERO,
        truncated: false,
        responses: Collector::default(),
    };
    let mut speed = Speed::new();
    let mut wall_ns = 0;
    let mut segment = Instant::now();
    let mut round_start = None;
    for &i in stream {
        let req = &traffic.requests[i as usize];
        if started.elapsed() > cap {
            out.truncated = true;
            break;
        }
        if speed.due() {
            wall_ns += speed.scale(nanos(segment.elapsed()));
            speed.refresh();
            segment = Instant::now();
        }
        let sent = Instant::now();
        let line = client.roundtrip_line(&req.line)?;
        let done = Instant::now();
        let raw = nanos(done - sent);
        let ns = speed.scale(raw);
        let s = &mut out.samples;
        s.raw_ns += u128::from(raw);
        s.requests += 1;
        match req.op {
            Op::Query => {
                s.query.push(ns);
                if let Some(start) = round_start.take() {
                    s.first_answer.push(speed.scale(nanos(done - start)));
                }
            }
            Op::Batch => s.batch.push(ns),
            Op::Edit => s.edit.push(ns),
            Op::Open => {
                s.open.push(ns);
                round_start = Some(sent);
            }
            _ => {}
        }
        out.responses.add(i, line, true);
    }
    wall_ns += speed.scale(nanos(segment.elapsed()));
    out.wall = Duration::from_nanos(wall_ns);
    out.samples.probes = speed.probes().to_vec();
    Ok(out)
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Hands freed heap back to the system, then resets this process's peak
/// resident set to its current one, so the peak read after the measured
/// phase covers the server and its traffic rather than input generation
/// and the exhaustive solves behind it. Where either step is unavailable
/// the peak covers more of the process.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only returns free heap pages to the system;
        // it takes no pointers.
        unsafe {
            malloc_trim(0);
        }
    }
    // Writing 5 to `clear_refs` resets `VmHWM` (Linux 4.0 and later).
    #[cfg(target_os = "linux")]
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("bench: peak_rss_mb covers the whole process: {e}");
    }
}

/// This process's peak resident set (`VmHWM`) in KiB; 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse().ok()
            })
        })
        .unwrap_or(0)
}

//! Load generation: open-loop ladder rungs and closed-loop saturation,
//! one client thread per connection.

use crate::spec::{Arrival, Sampler, Stream};
use crate::trace::{Span, Tracer};
use spsep::serve::protocol::{decode_response, encode_request};
use spsep::serve::{Client, Request, Response, MAX_FRAME};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a request may stay unanswered before it counts as failed.
/// Longer than any phase, so a starved connection shows as latency
/// unless it is starved for longer than this.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// One request's fate.
#[derive(Clone, Debug)]
pub struct Sample {
    /// What was asked.
    pub request: Request,
    /// When it was due (open loop) or sent (closed loop).
    pub due: Instant,
    /// When it was written.
    pub sent: Instant,
    /// When its response was complete (or the failure was noticed).
    pub done: Instant,
    /// The answer, or why there is none.
    pub result: Result<Response, String>,
    /// Encoded response frame size (0 when unknown or failed).
    pub response_bytes: usize,
}

impl Sample {
    /// Latency from due time to response, in ms; `None` if it failed.
    pub fn latency_ms(&self) -> Option<f64> {
        match &self.result {
            Ok(Response::Error { .. }) | Err(_) => None,
            Ok(_) => Some(self.done.saturating_duration_since(self.due).as_secs_f64() * 1e3),
        }
    }

    /// Whether the daemon answered with something other than an error.
    pub fn ok(&self) -> bool {
        self.latency_ms().is_some()
    }
}

/// Everything one phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Per request, in schedule order within each connection.
    pub samples: Vec<Sample>,
    /// Wall time from the phase start to its last response.
    pub elapsed: Duration,
    /// Client spans (traced runs only).
    pub spans: Vec<Span>,
    /// Closed loop only: completed requests per second in each window.
    pub window_qps: Vec<f64>,
}

/// Wait until `stream` is readable or `wait` has passed. `ppoll(2)` wakes
/// within timer slack (tens of µs); a socket read timeout would round the
/// wait up to a scheduler tick (4–10 ms), which would make the open-loop
/// generator late by that much.
fn wait_readable(stream: &TcpStream, wait: Duration) -> std::io::Result<bool> {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: wait.as_secs() as i64,
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `fd` and `timeout` are live, properly laid-out locals for
    // the duration of the call (one descriptor, so nfds = 1), and a null
    // signal mask is allowed (it leaves the mask unchanged).
    let ready = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    match ready {
        -1 => {
            let e = std::io::Error::last_os_error();
            if e.kind() == ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
        0 => Ok(false),
        _ => Ok(true),
    }
}

/// Split a complete frame off the front of `buf[*at..]`.
fn take_frame(buf: &[u8], at: &mut usize) -> Result<Option<(Vec<u8>, usize)>, String> {
    let rest = &buf[*at..];
    if rest.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
    if len == 0 || len > MAX_FRAME {
        return Err(format!("response frame length {len} out of range"));
    }
    let len = len as usize;
    if rest.len() < 4 + len {
        return Ok(None);
    }
    *at += 4 + len;
    Ok(Some((rest[4..4 + len].to_vec(), 4 + len)))
}

/// One connection's open-loop share: send each arrival when due, read
/// responses as they come (pipelined; the daemon answers a connection in
/// order), and wait for stragglers once everything is sent.
fn open_connection(
    addr: SocketAddr,
    start: Instant,
    arrivals: &[Arrival],
    tracer: &mut Tracer,
    phase_span: u64,
    req_base: u64,
) -> Vec<Sample> {
    let mut samples: Vec<Sample> = Vec::with_capacity(arrivals.len());
    let failed = |request: &Request, due: Instant, why: &str| Sample {
        request: request.clone(),
        due,
        sent: due,
        done: Instant::now(),
        result: Err(why.to_string()),
        response_bytes: 0,
    };
    let due = |a: &Arrival| start + Duration::from_secs_f64(a.at);
    let mut stream = match TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT).and_then(|s| {
        s.set_nodelay(true)
            .and(s.set_write_timeout(Some(REQUEST_TIMEOUT)))
            .map(|()| s)
    }) {
        Ok(s) => s,
        Err(e) => {
            let why = format!("connect: {e}");
            return arrivals
                .iter()
                .map(|a| failed(&a.request, due(a), &why))
                .collect();
        }
    };
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut span_ids: Vec<u64> = Vec::new();
    let (mut buf, mut at) = (Vec::<u8>::new(), 0usize);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next = 0usize;
    let broken: Option<String> = loop {
        let now = Instant::now();
        if let Some(&oldest) = pending.front() {
            if now >= samples[oldest].due + REQUEST_TIMEOUT {
                break Some("timed out".to_string());
            }
        }
        let wait = if next < arrivals.len() {
            let d = due(&arrivals[next]);
            if d <= now {
                let id = tracer.id();
                let sent_at = Instant::now();
                let bytes = tracer.time("client.encode", id, req_base + next as u64, || {
                    encode_request(&arrivals[next].request)
                });
                let wrote = tracer.time("client.write", id, req_base + next as u64, || {
                    stream.write_all(&bytes)
                });
                samples.push(Sample {
                    request: arrivals[next].request.clone(),
                    due: d,
                    sent: sent_at,
                    done: sent_at,
                    result: Err("no response".to_string()),
                    response_bytes: 0,
                });
                span_ids.push(id);
                if let Err(e) = wrote {
                    break Some(format!("write: {e}"));
                }
                pending.push_back(next);
                next += 1;
                continue;
            }
            d - now
        } else if pending.is_empty() {
            break None;
        } else {
            Duration::from_millis(100)
        };
        match wait_readable(&stream, wait) {
            Ok(true) => {}
            Ok(false) => continue,
            Err(e) => break Some(format!("poll: {e}")),
        }
        match stream.read(&mut chunk) {
            Ok(0) => break Some("daemon closed the connection".to_string()),
            Ok(k) => {
                let done = Instant::now();
                buf.extend_from_slice(&chunk[..k]);
                let mut bad_frame = None;
                loop {
                    match take_frame(&buf, &mut at) {
                        Ok(Some((payload, size))) => {
                            let Some(i) = pending.pop_front() else {
                                bad_frame = Some("response without a request".to_string());
                                break;
                            };
                            let req = req_base + i as u64;
                            let decoded = tracer.time("client.decode", span_ids[i], req, || {
                                decode_response(&payload)
                            });
                            let s = &mut samples[i];
                            s.done = done;
                            s.response_bytes = size;
                            s.result = decoded.map_err(|e| format!("decode: {e}"));
                            tracer.record(
                                span_ids[i],
                                "request",
                                s.due,
                                Instant::now(),
                                phase_span,
                                req,
                            );
                        }
                        Ok(None) => break,
                        Err(e) => {
                            bad_frame = Some(e);
                            break;
                        }
                    }
                }
                if let Some(e) = bad_frame {
                    break Some(e);
                }
                buf.drain(..at);
                at = 0;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => break Some(format!("read: {e}")),
        }
    };
    if let Some(why) = broken {
        let now = Instant::now();
        for &i in &pending {
            samples[i].done = now;
            samples[i].result = Err(why.clone());
        }
        for a in &arrivals[next..] {
            samples.push(failed(&a.request, due(a), &why));
        }
    }
    samples
}

/// Run one open-loop rung: `arrivals` dealt round-robin over
/// `connections` connections, each driven by its own thread.
pub fn open_loop(
    addr: SocketAddr,
    arrivals: &[Arrival],
    connections: usize,
    trace: bool,
    epoch: Instant,
    label: &str,
) -> Phase {
    let shares: Vec<Vec<Arrival>> = (0..connections)
        .map(|c| {
            arrivals
                .iter()
                .skip(c)
                .step_by(connections)
                .cloned()
                .collect()
        })
        .collect();
    // Connect and spawn before the first arrival is due.
    let start = Instant::now() + Duration::from_millis(50);
    let mut phase_tracer = Tracer::new(trace, epoch, 1);
    let phase_span = phase_tracer.id();
    let results: Vec<(Vec<Sample>, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .enumerate()
            .map(|(c, share)| {
                scope.spawn(move || {
                    let mut tracer = Tracer::new(trace, epoch, 2 + c as u64);
                    let base = ((c as u64) << 32) | 1;
                    let samples =
                        open_connection(addr, start, share, &mut tracer, phase_span, base);
                    (samples, tracer.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client thread panicked"))
            .collect()
    });
    finish(results, start, phase_tracer, phase_span, label)
}

fn finish(
    results: Vec<(Vec<Sample>, Vec<Span>)>,
    start: Instant,
    mut phase_tracer: Tracer,
    phase_span: u64,
    label: &str,
) -> Phase {
    let mut phase = Phase::default();
    let mut last = start;
    for (samples, spans) in results {
        last = samples.iter().map(|s| s.done).fold(last, Instant::max);
        phase.samples.extend(samples);
        phase.spans.extend(spans);
    }
    phase.elapsed = last.saturating_duration_since(start);
    phase_tracer.record(phase_span, label, start, last, 0, 0);
    phase.spans.extend(phase_tracer.into_spans());
    phase
}

/// Run one closed-loop window of `seconds` on fresh connections (and
/// fresh client threads): each connection sends its next request only
/// after the previous reply arrived, until `seconds` have passed; the
/// request in flight then is finished. Connection `c` draws from stream
/// `stream + c` of `seed`.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    addr: SocketAddr,
    sampler: &Sampler,
    seed: u64,
    stream: u64,
    connections: usize,
    seconds: f64,
    trace: bool,
    epoch: Instant,
    label: &str,
) -> Phase {
    let start = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    let end = start + window;
    let mut phase_tracer = Tracer::new(trace, epoch, 1);
    let phase_span = phase_tracer.id();
    let results: Vec<(Vec<Sample>, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                scope.spawn(move || {
                    let mut tracer = Tracer::new(trace, epoch, 2 + c as u64);
                    let mut requests = Stream::new(seed, stream + c as u64);
                    let mut samples = Vec::new();
                    let mut client = None;
                    while Instant::now() < end {
                        let request = requests.next(sampler);
                        let req = ((c as u64) << 32) | (samples.len() as u64 + 1);
                        let sent = Instant::now();
                        let result = match client.take() {
                            Some(c) => Ok(c),
                            None => Client::connect(addr, REQUEST_TIMEOUT),
                        }
                        .and_then(|mut cl: Client| {
                            let id = tracer.id();
                            let t0 = Instant::now();
                            let r = cl.request(&request);
                            tracer.record(
                                id,
                                "serve.round_trip",
                                t0,
                                Instant::now(),
                                phase_span,
                                req,
                            );
                            r.map(|resp| (cl, resp))
                        });
                        let done = Instant::now();
                        let result = match result {
                            Ok((cl, resp)) => {
                                client = Some(cl);
                                Ok(resp)
                            }
                            // The connection is out of step: the next
                            // request reconnects.
                            Err(e) => Err(e.to_string()),
                        };
                        samples.push(Sample {
                            request,
                            due: sent,
                            sent,
                            done,
                            result,
                            response_bytes: 0,
                        });
                    }
                    (samples, tracer.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client thread panicked"))
            .collect()
    });
    // Each connection's rate is its replies over the time to its last
    // reply, so a request straddling the window's end is neither lost
    // nor counted whole against the window.
    let rate: f64 = results
        .iter()
        .map(|(samples, _)| {
            let ok = samples.iter().filter(|s| s.ok()).count();
            let last = samples.iter().map(|s| s.done).max().unwrap_or(start);
            ok as f64
                / last
                    .saturating_duration_since(start)
                    .as_secs_f64()
                    .max(1e-9)
        })
        .sum();
    let mut phase = finish(results, start, phase_tracer, phase_span, label);
    phase.window_qps = vec![rate];
    phase
}

impl Phase {
    /// Pool the parts of a phase that ran as several slices.
    pub fn merge(parts: Vec<Phase>) -> Phase {
        let mut all = Phase::default();
        for p in parts {
            all.samples.extend(p.samples);
            all.elapsed += p.elapsed;
            all.spans.extend(p.spans);
            all.window_qps.extend(p.window_qps);
        }
        all
    }
}

/// Typed one-off request on a fresh connection (control plane: stats,
/// metrics, shutdown).
pub fn one_shot(addr: SocketAddr, request: &Request) -> Result<(Response, Duration), String> {
    let mut client = Client::connect(addr, REQUEST_TIMEOUT).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let resp = client.request(request).map_err(|e| e.to_string())?;
    Ok((resp, t.elapsed()))
}

//! Closed-loop clients over keep-alive connections, and the traced
//! variant that also times the server's per-request layers from
//! outside.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use jacqueline::wire::{self, WireResponse};
use jacqueline::{Authenticator, Response};
use jbench::http::HttpClient;

use crate::workload::{Op, Page, Stream};

/// Session tokens by viewer jid.
pub type Tokens = Vec<Option<String>>;

/// Latency class of a sample.
#[derive(Copy, Clone, PartialEq, Eq)]
pub enum Class {
    List,
    Item,
    Write,
}

/// One completed request: when it completed (µs since its client
/// started the measured work) and its socket round trip.
#[derive(Copy, Clone)]
pub struct Sample {
    pub end_us: u32,
    pub ns: u32,
    pub class: Class,
}

/// Samples each client can record per second of measured work
/// without growing its buffer. Buffers are allocated and written
/// before the clock starts, so the resident set does not follow the
/// request rate.
pub const SAMPLES_PER_SECOND: usize = 60_000;

/// An acknowledged write: the op and the jid the server returned.
#[derive(Clone)]
pub struct Acked {
    pub op: Op,
    pub jid: i64,
}

/// Attempted and failed operations of one class.
#[derive(Copy, Clone, Default)]
pub struct Count {
    pub attempted: u64,
    pub failed: u64,
}

impl Count {
    pub fn add(&mut self, other: Count) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Sums of per-request layer times in nanoseconds, over the requests
/// of the measured phase, plus executor service time split by the
/// render cache's verdict over every traced request.
#[derive(Clone, Default)]
pub struct Layers {
    pub requests: u64,
    pub rtt: f64,
    pub parse: f64,
    pub auth: f64,
    pub queue: f64,
    pub service: f64,
    pub serialize: f64,
    /// `(sum of service ns, requests)` for hit, miss and repair.
    pub by_status: [(f64, u64); 3],
}

impl Layers {
    pub fn merge(&mut self, o: &Layers) {
        self.requests += o.requests;
        self.rtt += o.rtt;
        self.parse += o.parse;
        self.auth += o.auth;
        self.queue += o.queue;
        self.service += o.service;
        self.serialize += o.serialize;
        for (a, b) in self.by_status.iter_mut().zip(&o.by_status) {
            a.0 += b.0;
            a.1 += b.1;
        }
    }
}

/// Everything one client saw. `merge` folds counts, hashes, writes
/// and layer sums; samples stay with the client that took them.
#[derive(Default)]
pub struct Outcome {
    pub samples: Vec<Sample>,
    /// Body hash of every read key served, and keys that came back
    /// with different bytes on different requests.
    pub bodies: HashMap<(i64, Page), u64>,
    pub unstable: Vec<(i64, Page)>,
    pub acked: Vec<Acked>,
    pub reads: Count,
    pub writes: Count,
    pub layers: Layers,
}

impl Outcome {
    pub fn merge(&mut self, o: Outcome) {
        for (key, hash) in o.bodies {
            if *self.bodies.entry(key).or_insert(hash) != hash {
                self.unstable.push(key);
            }
        }
        self.unstable.extend(o.unstable);
        self.acked.extend(o.acked);
        self.reads.add(o.reads);
        self.writes.add(o.writes);
        self.layers.merge(&o.layers);
    }
}

/// A 64-bit hash of a response body, eight bytes at a step: cheap
/// enough to run on every hot hit.
pub fn body_hash(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325_u64 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("eight bytes"));
        h = (h ^ w).wrapping_mul(0x0100_0000_01B3).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
    }
    h
}

/// One keep-alive connection sending each operation with its
/// viewer's session token.
pub struct Conn<'a> {
    client: HttpClient,
    tokens: &'a Tokens,
    /// When tracing: the server's authenticator, to time
    /// `authenticate` on each request.
    trace: Option<&'a Authenticator>,
    pub out: Outcome,
}

impl<'a> Conn<'a> {
    pub fn new(addr: SocketAddr, tokens: &'a Tokens, trace: Option<&'a Authenticator>) -> Self {
        Conn {
            client: HttpClient::connect(addr),
            tokens,
            trace,
            out: Outcome::default(),
        }
    }

    /// Sends one operation and returns the response. Every request is
    /// counted; with `measured`, its latency sample and layer sums go
    /// into the outcome too (otherwise only the render-cache split is
    /// traced).
    pub fn send(&mut self, op: &Op, measured: bool) -> WireResponse {
        self.send_at(op, measured, Instant::now())
    }

    /// [`Conn::send`], with sample completion times taken from
    /// `origin`.
    fn send_at(&mut self, op: &Op, measured: bool, origin: Instant) -> WireResponse {
        let token = self.tokens[op.viewer() as usize].clone();
        self.client.set_token(token.clone());
        let (class, response, rtt) = match op {
            Op::Read { page, .. } => {
                let path = page.path();
                let start = Instant::now();
                let response = self.client.get(&path);
                let class = if page.is_list() {
                    Class::List
                } else {
                    Class::Item
                };
                (class, response, start.elapsed())
            }
            _ => {
                let (path, form) = op.write_form().expect("a write");
                let start = Instant::now();
                let response = self.client.post(path, &form);
                (Class::Write, response, start.elapsed())
            }
        };
        let ok = response.status == 200;
        if let Some(auth) = self.trace {
            self.trace_layers(op, token.as_deref(), auth, &response, rtt, measured);
        }
        if class == Class::Write {
            self.out.writes.record(ok);
        } else {
            self.out.reads.record(ok);
        }
        if measured && ok {
            self.out.samples.push(Sample {
                end_us: u32::try_from(origin.elapsed().as_micros()).unwrap_or(u32::MAX),
                ns: u32::try_from(rtt.as_nanos()).unwrap_or(u32::MAX),
                class,
            });
        }
        if ok {
            match op {
                Op::Read { viewer, page } => {
                    let hash = body_hash(&response.body);
                    if *self.out.bodies.entry((*viewer, *page)).or_insert(hash) != hash {
                        self.out.unstable.push((*viewer, *page));
                    }
                }
                _ => {
                    let jid = response.text().parse().expect("a write answers its jid");
                    self.out.acked.push(Acked {
                        op: op.clone(),
                        jid,
                    });
                }
            }
        }
        response
    }

    /// Times, outside the round trip, the layers the server ran for
    /// this request: the wire parse of the same bytes, authentication
    /// of the parsed request, and serialization of the same
    /// response; queue and service time come from the executor's
    /// response headers.
    fn trace_layers(
        &mut self,
        op: &Op,
        token: Option<&str>,
        auth: &Authenticator,
        response: &WireResponse,
        rtt: Duration,
        measured: bool,
    ) {
        let header_us = |name| {
            response
                .header(name)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        let service = header_us("x-service-us") * 1e3;
        let slot = match response.header("x-render-cache") {
            Some("hit") => Some(0),
            Some("miss") => Some(1),
            Some("repair") => Some(2),
            _ => None,
        };
        if let Some(slot) = slot {
            self.out.layers.by_status[slot].0 += service;
            self.out.layers.by_status[slot].1 += 1;
        }
        if !measured {
            return;
        }
        let cookie = token.map_or_else(String::new, |t| format!("Cookie: session={t}\r\n"));
        let raw = match op {
            Op::Read { page, .. } => {
                format!(
                    "GET /{} HTTP/1.1\r\nHost: harness\r\n{cookie}\r\n",
                    page.path()
                )
            }
            _ => {
                let (path, form) = op.write_form().expect("a write");
                format!(
                    "POST /{path} HTTP/1.1\r\nHost: harness\r\n{cookie}\
                     Content-Type: application/x-www-form-urlencoded\r\n\
                     Content-Length: {}\r\n\r\n{form}",
                    form.len()
                )
            }
        };
        let served = Response {
            status: response.status,
            body: String::from_utf8_lossy(&response.body).into_owned(),
            headers: response.headers.clone(),
        };
        let start = Instant::now();
        let request = wire::read_request(&mut Cursor::new(raw.as_bytes())).expect("parse");
        let parsed = Instant::now();
        black_box(auth.authenticate(&request));
        let authed = Instant::now();
        black_box(served.serialize(true, false));
        let serialized = Instant::now();
        let l = &mut self.out.layers;
        l.requests += 1;
        l.rtt += rtt.as_nanos() as f64;
        l.parse += (parsed - start).as_nanos() as f64;
        l.auth += (authed - parsed).as_nanos() as f64;
        l.serialize += (serialized - authed).as_nanos() as f64;
        l.queue += header_us("x-queue-us") * 1e3;
        l.service += service;
    }
}

/// What each client thread runs: whole rounds of a stream, measured,
/// or a fixed list of operations (warm-up, unmeasured).
pub enum Work<'p> {
    Rounds(Stream<'p>, Until),
    Fixed(Vec<Op>),
}

/// When a client stops starting rounds.
#[derive(Copy, Clone)]
pub enum Until {
    Elapsed(Duration),
    Rounds(usize),
}

/// Runs one client per work item, each on its own thread and
/// connection, closed loop. Measured clients allocate their sample
/// buffers first and start together.
pub fn run_clients(
    addr: SocketAddr,
    tokens: &Tokens,
    trace: Option<&Authenticator>,
    work: Vec<Work<'_>>,
) -> Vec<Outcome> {
    let barrier = Barrier::new(work.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = work
            .into_iter()
            .map(|work| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut conn = Conn::new(addr, tokens, trace);
                    if let Work::Rounds(stream, until) = &work {
                        let capacity = match *until {
                            Until::Elapsed(length) => {
                                SAMPLES_PER_SECOND * length.as_secs().max(1) as usize
                            }
                            Until::Rounds(n) => n * stream.round_len(),
                        };
                        let fill = Sample {
                            end_us: 0,
                            ns: 0,
                            class: Class::Item,
                        };
                        conn.out.samples = vec![fill; capacity];
                        conn.out.samples.clear();
                    }
                    barrier.wait();
                    let start = Instant::now();
                    match work {
                        Work::Rounds(mut stream, until) => {
                            let mut rounds = 0;
                            while match until {
                                Until::Elapsed(length) => start.elapsed() < length,
                                Until::Rounds(n) => rounds < n,
                            } {
                                for op in stream.round() {
                                    conn.send_at(&op, true, start);
                                }
                                rounds += 1;
                            }
                        }
                        Work::Fixed(ops) => {
                            for op in &ops {
                                conn.send(op, false);
                            }
                        }
                    }
                    conn.out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// Logs every viewer in over `clients` connections; returns the
/// tokens and the login count.
pub fn login(addr: SocketAddr, viewers: &[i64], clients: usize) -> (Tokens, Count) {
    let max = viewers.iter().copied().max().unwrap_or(0);
    let mut tokens: Tokens = vec![None; max as usize + 1];
    let mut count = Count::default();
    let chunk = viewers.len().div_ceil(clients.max(1)).max(1);
    let results: Vec<Vec<(i64, Option<String>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = viewers
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut client = HttpClient::connect(addr);
                    part.iter()
                        .map(|&v| {
                            let response = client.login(v);
                            (v, (response.status == 200).then(|| response.text()))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("login thread"))
            .collect()
    });
    for (v, token) in results.into_iter().flatten() {
        count.record(token.is_some());
        tokens[v as usize] = token;
    }
    (tokens, count)
}

/// Splits `ops` round-robin over `n` clients.
pub fn split(ops: Vec<Op>, n: usize) -> Vec<Work<'static>> {
    let mut parts: Vec<Vec<Op>> = (0..n).map(|_| Vec::new()).collect();
    for (i, op) in ops.into_iter().enumerate() {
        parts[i % n].push(op);
    }
    parts.into_iter().map(Work::Fixed).collect()
}

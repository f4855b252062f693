//! Served-traffic benchmark of the conference case study.
//!
//! ```text
//! perfbench --workload <read_hot|read_cold|write_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Serves `apps::conf` over loopback HTTP inside this process, drives
//! it closed loop from two keep-alive clients, checks what it served
//! against the hand-coded baseline, recovers the store into a blank
//! app, and prints one JSON line: the end-to-end metrics, or with
//! `--trace 1` the per-layer ones. See README.md.

mod client;
mod oracle;
mod probe;
mod workload;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use apps::conf;
use jacqueline::{
    App, CheckpointPolicy, RenderCacheStats, RestoreStats, Server, ServerConfig, Site,
};

use client::{Class, Count, Layers, Outcome, Sample, Tokens, Until, Work};
use jbench::chaos::SplitMix64;
use oracle::Oracle;
use probe::Probe;
use workload::{
    below, Dataset, Op, Page, Population, Stream, Workload, CHAIR, CHECKPOINT_EVERY_RECORDS,
    PAPERS, USERS,
};

/// Client threads, connection workers and executor workers: one per
/// core of the reference machine.
const CLIENTS: usize = 2;
/// Set-ups at each end of a run (`setup_s` is the median of all of
/// them): the host's speed drifts over seconds, so set-ups taken at
/// both ends of the run sample more of it than those at one end.
const SETUPS: usize = 5;
/// Rounds per client per second of `--seconds` in `write_mix`, whose
/// measured phase is this fixed amount of work rather than a fixed
/// time: its writes are inserts, so a timed phase would grow the
/// tables with write speed.
const MIX_ROUNDS_PER_SECOND: u64 = 20;
/// Windows the durability epilogue is cut into (the measured phase
/// has `--seconds` of them). Rates and percentiles are taken per window
/// and the median window is reported, so a burst of interference
/// from outside the process moves one window, not the result.
const EPILOGUE_WINDOWS: usize = 30;
/// The recovery and durability stretch after the phase: `SLICES`
/// times `RESTORES` restores, each set followed in the read workloads
/// by a slice of the durability epilogue, `SLICE_ROUNDS` rounds of the
/// write round (15 writes) per client. A fixed amount, so the store
/// those workloads end with does not grow with write speed; each
/// third of the slices (5400 writes) stays below the checkpoint
/// cadence.
const SLICES: usize = 45;
const RESTORES: usize = 5;
const EPILOGUE_SEGMENTS: usize = 3;
const SLICE_ROUNDS: usize = 12;
/// Rounds of the write round in the WAL tail every run recovers.
const TAIL_ROUNDS: usize = 66;
/// Cold object pages rendered in `read_cold`'s warm-up: enough to
/// fill the render cache, so the measured phase starts evicting.
const COLD_WARM_KEYS: usize = 8192;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?);
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Operations attempted and failed, by class.
#[derive(Default)]
struct Counts {
    login: Count,
    read: Count,
    write: Count,
    recovery: Count,
}

impl Counts {
    fn add_outcome(&mut self, o: &Outcome) {
        self.read.add(o.reads);
        self.write.add(o.writes);
    }

    fn total(&self) -> Count {
        let mut t = Count::default();
        for c in [self.login, self.read, self.write, self.recovery] {
            t.add(c);
        }
        t
    }
}

struct Served {
    server: Server,
    site: Site,
    tokens: Tokens,
    dir: PathBuf,
}

impl Served {
    /// Shuts the server down and deletes its store.
    fn close(self) {
        self.server.shutdown();
        drop(self.site);
        std::fs::remove_dir_all(&self.dir).expect("remove a store");
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        conn_threads: CLIENTS,
        executor_threads: CLIENTS,
        checkpoint: CheckpointPolicy {
            every_records: Some(CHECKPOINT_EVERY_RECORDS),
            every: None,
        },
        ..ServerConfig::default()
    }
}

/// The warm-up pass: `read_hot` renders every hot key, `read_cold`
/// fills the render cache with random object pages, `write_mix`
/// renders every viewer's two list pages.
fn warm_up_ops(workload: Workload, population: &Population, seed: u64) -> Vec<Op> {
    let read = |(viewer, page)| Op::Read { viewer, page };
    match workload {
        Workload::ReadHot => population.all_keys().into_iter().map(read).collect(),
        Workload::ReadCold => {
            let mut rng = SplitMix64::new(seed ^ 0x7761_726D); // "warm"
            let mut ops: Vec<Op> = [Page::PapersAll, Page::UsersAll]
                .map(|page| read((CHAIR, page)))
                .into();
            ops.extend((0..COLD_WARM_KEYS).map(|i| {
                let viewer = 1 + below(&mut rng, USERS) as i64;
                let page = if i % 3 == 2 {
                    Page::UsersOne(1 + below(&mut rng, USERS) as i64)
                } else {
                    Page::PapersOne(1 + below(&mut rng, PAPERS) as i64)
                };
                read((viewer, page))
            }));
            ops
        }
        Workload::WriteMix => population
            .viewers
            .iter()
            .flat_map(|&v| [read((v, Page::PapersAll)), read((v, Page::UsersAll))])
            .collect(),
    }
}

/// One complete set-up: populate through `App::create`, persistence
/// on with its first full checkpoint, bind, log every viewer in, warm
/// up. Returns the server and the set-up's time, which leaves out
/// persistence and the first checkpoint except in `write_mix`: those
/// are hundreds of fsyncs, whose latency on the reference machine
/// varies far more than the rest of set-up.
fn set_up(
    args: &Args,
    data: &Dataset,
    population: &Population,
    dir: PathBuf,
    counts: &mut Counts,
    layers: &mut Layers,
) -> (Served, Duration) {
    let start = Instant::now();
    let mut app = App::new();
    conf::register(&mut app).expect("register the conference models");
    data.populate(&app);
    let populated = start.elapsed();
    let site = apps::serve::conference_site_persistent(app, &dir).expect("enable persistence");
    let persisted = Instant::now();
    let server = Server::bind(site.clone(), "127.0.0.1:0", server_config()).expect("bind");
    let (tokens, logins) = client::login(server.addr(), &population.viewers, CLIENTS);
    counts.login.add(logins);
    let warm = warm_up_ops(args.workload, population, args.seed);
    let trace = args.trace.then_some(&*site.auth);
    for o in client::run_clients(server.addr(), &tokens, trace, client::split(warm, CLIENTS)) {
        counts.add_outcome(&o);
        layers.merge(&o.layers);
    }
    let took = match args.workload {
        Workload::WriteMix => start.elapsed(),
        _ => populated + persisted.elapsed(),
    };
    let served = Served {
        server,
        site,
        tokens,
        dir,
    };
    (served, took)
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `jbench::percentile` (nearest rank), 0 for no samples.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        jbench::percentile(values, q)
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Copies a store directory, recursively.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create a store copy");
    for entry in std::fs::read_dir(from).expect("read the store directory") {
        let entry = entry.expect("directory entry");
        let target = to.join(entry.file_name());
        if entry.metadata().expect("metadata").is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).expect("copy a store file");
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read the store directory")
        .map(|entry| {
            let entry = entry.expect("directory entry");
            let meta = entry.metadata().expect("metadata");
            if meta.is_dir() {
                dir_bytes(&entry.path())
            } else {
                meta.len()
            }
        })
        .sum()
}

/// The process's peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn json(&self, correct: bool, total: Count) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            total.attempted,
            total.failed,
            metrics.join(", ")
        )
    }
}

/// Window `w` of `count` is the `w`-th of `count` equal runs of
/// consecutive requests of every client: windows follow progress
/// through the seeded streams, so in `write_mix` a window holds the
/// same table sizes on every run.
fn window(samples: &[Vec<Sample>], w: usize, count: usize) -> impl Iterator<Item = &[Sample]> {
    samples
        .iter()
        .map(move |c| &c[w * c.len() / count..(w + 1) * c.len() / count])
}

/// The median over `count` windows of the `q`-th percentile of round
/// trips (ms) of the given classes.
fn windowed(samples: &[Vec<Sample>], count: usize, classes: &[Class], q: f64) -> f64 {
    let mut scratch: Vec<f64> = Vec::new();
    let mut per_window = Vec::new();
    for w in 0..count {
        scratch.clear();
        for chunk in window(samples, w, count) {
            scratch.extend(
                chunk
                    .iter()
                    .filter(|s| classes.contains(&s.class))
                    .map(|s| f64::from(s.ns) / 1e6),
            );
        }
        if !scratch.is_empty() {
            per_window.push(percentile(&scratch, q));
        }
    }
    median(&per_window)
}

/// Completed requests per second: the median window's rate, each
/// window's being the sum over clients of its requests over the time
/// they spanned.
fn windowed_rate(samples: &[Vec<Sample>], count: usize) -> f64 {
    let rates: Vec<f64> = (0..count)
        .map(|w| {
            window(samples, w, count)
                .filter(|c| c.len() > 1)
                .map(|c| {
                    let span = c[c.len() - 1].end_us.saturating_sub(c[0].end_us).max(1);
                    (c.len() - 1) as f64 * 1e6 / f64::from(span)
                })
                .sum()
        })
        .collect();
    median(&rates)
}

/// Each client's samples, and everything else folded into one
/// outcome.
fn fold(clients: Vec<Outcome>) -> (Vec<Vec<Sample>>, Outcome) {
    let mut all = Outcome::default();
    let mut samples = Vec::new();
    for mut o in clients {
        samples.push(std::mem::take(&mut o.samples));
        all.merge(o);
    }
    (samples, all)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn rendered(s: &RenderCacheStats) -> u64 {
    s.hits + s.misses + s.repairs
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <read_hot|read_cold|write_mix> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create the work directory");
    let line = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    println!("{line}");
}

#[allow(clippy::too_many_lines)]
fn run(args: &Args, work: &Path) -> String {
    let w = args.workload;
    println!(
        "perfbench {} seed={} seconds={} trace={} cores={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let data = Dataset::generate(args.seed);
    let population = Population::new(w, args.seed);
    let mut counts = Counts::default();
    let mut layers = Layers::default();

    // Set-up, several times; the last one serves.
    let mut setup_s = Vec::new();
    let mut served: Option<Served> = None;
    for i in 0..SETUPS {
        if let Some(old) = served.take() {
            old.close();
        }
        let dir = work.join(format!("store{i}"));
        let (one, took) = set_up(args, &data, &population, dir, &mut counts, &mut layers);
        served = Some(one);
        setup_s.push(took.as_secs_f64());
    }
    let Served {
        server,
        site,
        tokens,
        dir,
    } = served.expect("a set-up ran");
    let addr = server.addr();
    let trace = args.trace.then_some(&*site.auth);

    // The measured phase.
    let length = Duration::from_secs(args.seconds);
    let before = site.app.render_cache_stats();
    let streams = (0..CLIENTS as u64)
        .map(|k| {
            let stream = Stream::new(w.round(), &population, args.seed, k);
            let until = match w {
                Workload::WriteMix => {
                    Until::Rounds((MIX_ROUNDS_PER_SECOND * args.seconds) as usize)
                }
                _ => Until::Elapsed(length),
            };
            Work::Rounds(stream, until)
        })
        .collect();
    let (phase_samples, phase) = fold(client::run_clients(addr, &tokens, trace, streams));
    let after = site.app.render_cache_stats();
    counts.add_outcome(&phase);
    layers.merge(&phase.layers);

    let mut oracle = Oracle::default();
    let mut baseline = data.baseline();
    let sample = Oracle::sample(w, &population, &phase.bodies, args.seed);
    let mut acked = phase.acked.clone();
    let phase_windows = args.seconds as usize;
    if w != Workload::WriteMix {
        // Every key served the same bytes each time, and the bytes
        // the baseline renders.
        oracle.check(phase.unstable.is_empty(), || {
            format!(
                "{} keys served different bytes over the phase",
                phase.unstable.len()
            )
        });
        let logged_in: Vec<(i64, Page)> = sample
            .iter()
            .copied()
            .filter(|(v, _)| tokens.get(*v as usize).is_some_and(Option::is_some))
            .collect();
        let mut conn = client::Conn::new(addr, &tokens, trace);
        oracle.served_matches_baseline(&mut conn, &logged_in, &mut baseline, Some(&phase.bodies));
        counts.add_outcome(&conn.out);
        layers.merge(&conn.out.layers);
    }

    // A fixed store to recover: a checkpoint, then a fixed number of
    // writes, so every run restores a checkpoint plus the same number
    // of logged records. (A scheduled checkpoint still in flight runs
    // before this one or right after it, ahead of the tail's first
    // write.) Nothing writes while it is copied aside.
    site.app
        .checkpoint_quiescent(&dir)
        .expect("checkpoint before the tail");
    let mut tail = Stream::new(Workload::write_round(), &population, args.seed, 4);
    let tail_ops = (0..TAIL_ROUNDS).flat_map(|_| tail.round()).collect();
    let (_, tail) = fold(client::run_clients(
        addr,
        &tokens,
        trace,
        vec![Work::Fixed(tail_ops)],
    ));
    counts.add_outcome(&tail);
    layers.merge(&tail.layers);
    acked.extend(tail.acked);
    let recovery_dir = work.join("recovery");
    copy_dir(&dir, &recovery_dir);

    // Restores of that copy into a blank app, interleaved with the
    // read workloads' durability epilogue: a fixed number of the write
    // mix's writes alone, closed loop, in slices. Both are timed over
    // the same stretch of the run, which is longer than either alone,
    // so neither reports one brief fast or slow stretch of the host. A
    // quiescent checkpoint (no request in flight) before each third of
    // the slices keeps the WAL below the checkpoint cadence, so no
    // checkpoint falls inside a measured write.
    let epilogue = w != Workload::WriteMix;
    let mut write_samples: Vec<Vec<Sample>> = vec![Vec::new(); CLIENTS];
    let mut recovery_s = Vec::new();
    let mut restore_stats = RestoreStats::default();
    for slice in 0..SLICES {
        for _ in 0..RESTORES {
            let start = Instant::now();
            let mut app = App::new();
            conf::register(&mut app).expect("register the conference models");
            let restored = app.restore_from(&recovery_dir);
            recovery_s.push(start.elapsed().as_secs_f64());
            counts.recovery.record(restored.is_ok());
            match restored {
                Ok(stats) => restore_stats = stats,
                Err(e) => oracle.check(false, || format!("restore failed: {e}")),
            }
        }
        if !epilogue {
            continue;
        }
        if slice % (SLICES / EPILOGUE_SEGMENTS) == 0 {
            site.app
                .checkpoint_quiescent(&dir)
                .expect("checkpoint between epilogue segments");
        }
        let streams = (0..CLIENTS as u64)
            .map(|k| {
                let key = 100 + (slice * CLIENTS) as u64 + k;
                let s = Stream::new(Workload::write_round(), &population, args.seed, key);
                Work::Rounds(s, Until::Rounds(SLICE_ROUNDS))
            })
            .collect();
        let (part, writes) = fold(client::run_clients(addr, &tokens, trace, streams));
        for (all, part) in write_samples.iter_mut().zip(part) {
            all.extend(part);
        }
        counts.add_outcome(&writes);
        layers.merge(&writes.layers);
        acked.extend(writes.acked);
    }
    let (write_samples, write_windows) = if epilogue {
        (&write_samples[..], EPILOGUE_WINDOWS)
    } else {
        (&phase_samples[..], phase_windows)
    };

    // Acknowledged writes: into the baseline in jid order, then
    // exactly once on the chair's pages, then the sample again.
    oracle.apply_writes(&mut baseline, &acked);
    let (chair_token, chair_login) = client::login(addr, &[CHAIR], 1);
    counts.login.add(chair_login);
    let mut tokens_chair = tokens.clone();
    tokens_chair.resize(tokens_chair.len().max(CHAIR as usize + 1), None);
    tokens_chair[CHAIR as usize] = chair_token[CHAIR as usize].clone();
    let mut conn = client::Conn::new(addr, &tokens_chair, trace);
    oracle.exactly_once(&mut conn, &acked);
    oracle.served_matches_baseline(&mut conn, &sample, &mut baseline, None);
    // One more paper, then the sample once more: the list pages just
    // stored are now one write stale, so `papers/all` is served by
    // fragment repair.
    let last = Op::Paper {
        viewer: CHAIR,
        title: format!("bp-{}-last", args.seed),
    };
    conn.send(&last, false);
    oracle.apply_writes(&mut baseline, &conn.out.acked);
    acked.append(&mut conn.out.acked);
    let served_bytes = oracle.served_matches_baseline(&mut conn, &sample, &mut baseline, None);
    counts.add_outcome(&conn.out);
    layers.merge(&conn.out.layers);
    drop(conn);

    let end = site.app.render_cache_stats();
    let decode = site.app.db.decode_cache_stats();
    let scheduled = site.app.scheduled_checkpoint_count();
    server.shutdown();
    drop(site);
    let store_bytes = dir_bytes(&dir);

    // Recovery of the served store itself, once: it must render the
    // sample as the server did before it shut down.
    let mut app = App::new();
    conf::register(&mut app).expect("register the conference models");
    let restored = app.restore_from(&dir);
    counts.recovery.record(restored.is_ok());
    let mut recovered = None;
    match restored {
        Ok(_) => {
            oracle.recovered_matches(&app, &served_bytes);
            recovered = Some(app);
        }
        Err(e) => oracle.check(false, || format!("restore failed: {e}")),
    }
    let peak_rss = peak_rss_mb();
    if !args.trace {
        drop(recovered.take());
        for i in 0..SETUPS {
            let dir = work.join(format!("late{i}"));
            let (one, took) = set_up(args, &data, &population, dir, &mut counts, &mut layers);
            one.close();
            setup_s.push(took.as_secs_f64());
        }
    }

    let in_phase = rendered(&after) - rendered(&before);
    let hit_ratio = ratio(after.hits - before.hits, in_phase);
    // Each workload stays in the mode it was chosen for.
    match w {
        Workload::ReadHot => oracle.check(hit_ratio >= 0.99, || {
            format!("render-cache hit ratio {hit_ratio:.4} in the phase, not at least 0.99")
        }),
        Workload::ReadCold => oracle.check(hit_ratio < 0.10, || {
            format!("render-cache hit ratio {hit_ratio:.4} in the phase, not below 0.10")
        }),
        Workload::WriteMix => {
            let repairs = after.repairs - before.repairs;
            let invalidated = after.invalidated - before.invalidated;
            oracle.check(repairs > 0 && invalidated > 0, || {
                format!("{repairs} fragment repairs and {invalidated} invalidations in the phase")
            });
            // At least one WAL record per write, so at least this many
            // cadences passed (two at `--seconds 25`).
            let due = phase.acked.len() as u64 / CHECKPOINT_EVERY_RECORDS;
            oracle.check(scheduled >= due, || {
                format!("{scheduled} scheduled checkpoints, {due} due")
            });
        }
    }
    println!(
        "ops: login {}/{} read {}/{} write {}/{} recovery {}/{} (attempted/failed)",
        counts.login.attempted,
        counts.login.failed,
        counts.read.attempted,
        counts.read.failed,
        counts.write.attempted,
        counts.write.failed,
        counts.recovery.attempted,
        counts.recovery.failed
    );
    let class_count = |samples: &[Vec<Sample>], class| {
        samples
            .iter()
            .flatten()
            .filter(|s| s.class == class)
            .count()
    };
    println!(
        "measured: {} list, {} object, {} write samples; render cache in the phase: \
         hit {hit_ratio:.4} miss {:.4} repair {:.4}",
        class_count(&phase_samples, Class::List),
        class_count(&phase_samples, Class::Item),
        class_count(write_samples, Class::Write),
        ratio(after.misses - before.misses, in_phase),
        ratio(after.repairs - before.repairs, in_phase),
    );
    println!(
        "run: render-cache repairs {}, invalidated {}; scheduled checkpoints \
         {scheduled}; acknowledged writes {}; oracle keys {}",
        end.repairs,
        end.invalidated,
        acked.len(),
        served_bytes.len()
    );
    for p in oracle.problems.iter().take(20) {
        eprintln!("oracle: {p}");
    }
    let correct = oracle.problems.is_empty();

    let mut m = Metrics(Vec::new());
    if args.trace {
        // Page times on the data the phase served; write, checkpoint
        // and restore figures on the recovered app.
        let mut probe = Probe::default();
        let mut fresh = App::new();
        conf::register(&mut fresh).expect("register the conference models");
        data.populate(&fresh);
        probe.reads(
            &fresh,
            &mut data.baseline(),
            w,
            &population,
            args.seed,
            Duration::from_secs(args.seconds.div_ceil(4)),
        );
        drop(fresh);
        if let Some(mut app) = recovered {
            probe.writes(&mut app, &work.join("probe"), &population, args.seed);
        }
        let stats = restore_stats;
        let l = &phase.layers;
        let per = |sum: f64| sum / l.requests.max(1) as f64 / 1e3;
        let residual = per(l.rtt) - per(l.parse + l.auth + l.queue + l.service + l.serialize);
        let status_us = |i: usize| {
            let (sum, n) = layers.by_status[i];
            sum / n.max(1) as f64 / 1e3
        };
        let (mut nodes, mut hits, mut misses) = (0, 0, 0);
        for s in [
            faceted::intern_stats::<Option<microdb::Row>>(),
            faceted::intern_stats::<microdb::Value>(),
            faceted::intern_stats::<bool>(),
            faceted::intern_stats::<i64>(),
        ] {
            nodes += s.leaves + s.splits;
            hits += s.memo_hits;
            misses += s.memo_misses;
        }
        m.put(
            "trace.throughput_rps",
            windowed_rate(&phase_samples, phase_windows),
            "1/s",
        );
        let reads = [Class::List, Class::Item];
        m.put(
            "tail.read_p99_ms",
            windowed(&phase_samples, phase_windows, &reads, 99.0),
            "ms",
        );
        m.put(
            "tail.write_p99_ms",
            windowed(write_samples, write_windows, &[Class::Write], 99.0),
            "ms",
        );
        m.put("server.rtt_us", per(l.rtt), "us");
        m.put("wire.parse_us", per(l.parse), "us");
        m.put("auth.authenticate_us", per(l.auth), "us");
        m.put("executor.queue_us", per(l.queue), "us");
        m.put("executor.service_us", per(l.service), "us");
        m.put("wire.serialize_us", per(l.serialize), "us");
        m.put("server.residual_us", residual, "us");
        m.put("rendercache.hit_us", status_us(0), "us");
        m.put("rendercache.miss_us", status_us(1), "us");
        m.put("rendercache.repair_us", status_us(2), "us");
        m.put("rendercache.hit_ratio", hit_ratio, "ratio");
        m.put("rendercache.repairs", end.repairs as f64, "count");
        m.put("rendercache.invalidated", end.invalidated as f64, "count");
        m.put("http.list_render_ms", median(&probe.list_render_ms), "ms");
        m.put("http.item_render_us", median(&probe.item_render_us), "us");
        m.put(
            "baseline.list_render_ms",
            median(&probe.baseline_list_ms),
            "ms",
        );
        m.put(
            "baseline.item_render_us",
            median(&probe.baseline_item_us),
            "us",
        );
        m.put("form.query_us", mean(&probe.query_us), "us");
        m.put("session.resolve_us", mean(&probe.resolve_us), "us");
        m.put(
            "form.decode_hit_ratio",
            ratio(decode.hits, decode.hits + decode.misses),
            "ratio",
        );
        m.put("form.delta_applies", decode.delta_applies as f64, "count");
        m.put("faceted.nodes", nodes as f64, "count");
        m.put(
            "faceted.memo_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        );
        m.put("write.handle_us", median(&probe.write_us), "us");
        m.put(
            "microdb.wal_bytes_per_record",
            mean(&probe.wal_bytes_per_record),
            "B",
        );
        m.put(
            "checkpoint.count",
            probe.checkpoint_ms.len() as f64,
            "count",
        );
        m.put("checkpoint.ms", median(&probe.checkpoint_ms), "ms");
        m.put(
            "checkpoint.chunks_written",
            mean(&probe.chunks_written),
            "count",
        );
        m.put(
            "checkpoint.chunks_reused",
            mean(&probe.chunks_reused),
            "count",
        );
        m.put("restore.wal_applied", stats.wal_applied as f64, "count");
        m.put(
            "restore.objects_primed",
            stats.objects_primed as f64,
            "count",
        );
    } else {
        let rows = data.rows() + acked.len();
        m.put("setup_s", median(&setup_s), "s");
        m.put(
            "throughput_rps",
            windowed_rate(&phase_samples, phase_windows),
            "1/s",
        );
        m.put(
            "list_p50_ms",
            windowed(&phase_samples, phase_windows, &[Class::List], 50.0),
            "ms",
        );
        m.put(
            "item_p50_ms",
            windowed(&phase_samples, phase_windows, &[Class::Item], 50.0),
            "ms",
        );
        m.put(
            "write_p50_ms",
            windowed(write_samples, write_windows, &[Class::Write], 50.0),
            "ms",
        );
        m.put("recovery_s", median(&recovery_s), "s");
        m.put(
            "store_bytes_per_row",
            store_bytes as f64 / rows as f64,
            "B/row",
        );
        m.put("peak_rss_mb", peak_rss, "MB");
    }
    m.json(correct, counts.total())
}

//! The traced run's in-process half: the same seeded streams
//! replayed outside the server, timing calls into the layers a
//! served request runs inside the executor (FORM query, Early-Pruning
//! resolution, page render, write handling, checkpoints), with the
//! hand-coded baseline's page time beside the render.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use apps::conf;
use apps::conf_vanilla::ConfVanilla;
use jacqueline::{App, Session, Viewer};

use crate::workload::{Op, Page, Population, Stream, Workload, CHECKPOINT_EVERY_RECORDS};

/// Writes replayed after the stream, so every workload's probe
/// covers write handling and a few checkpoints.
const PROBE_WRITES: usize = 12_500;

/// Per-call samples of each probed layer.
#[derive(Default)]
pub struct Probe {
    pub list_render_ms: Vec<f64>,
    pub item_render_us: Vec<f64>,
    pub baseline_list_ms: Vec<f64>,
    pub baseline_item_us: Vec<f64>,
    pub query_us: Vec<f64>,
    pub resolve_us: Vec<f64>,
    pub write_us: Vec<f64>,
    pub wal_bytes_per_record: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    pub chunks_written: Vec<f64>,
    pub chunks_reused: Vec<f64>,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

impl Probe {
    /// Replays client 0's stream for `length` on `app`, freshly
    /// populated from the dataset the measured phase started from,
    /// beside `baseline`, built from the same rows: the page, query
    /// and resolution times are for the pages the phase served. The
    /// stream's writes (in `write_mix`) are applied untimed, so the
    /// tables grow as they did in the phase.
    pub fn reads(
        &mut self,
        app: &App,
        baseline: &mut ConfVanilla,
        workload: Workload,
        population: &Population,
        seed: u64,
        length: Duration,
    ) {
        let router = conf::router();
        let mut stream = Stream::new(workload.round(), population, seed, 0);
        let start = Instant::now();
        while start.elapsed() < length {
            for op in stream.round() {
                match op {
                    Op::Read { viewer, page } => self.read(app, &router, baseline, viewer, page),
                    write => {
                        let request = write.write_request().expect("a write");
                        black_box(router.handle(app, &request));
                        write.apply(baseline);
                    }
                }
            }
        }
    }

    /// Replays `PROBE_WRITES` writes of the write mix on `app` (the
    /// recovered one) with persistence on in `dir`, checkpointing at
    /// the served run's record cadence.
    pub fn writes(&mut self, app: &mut App, dir: &Path, population: &Population, seed: u64) {
        app.enable_persistence(dir).expect("probe persistence");
        app.checkpoint_quiescent(dir).expect("probe checkpoint");
        let router = conf::router();
        let mut writes = Stream::new(Workload::write_round(), population, seed, 2);
        while self.write_us.len() < PROBE_WRITES {
            for op in writes.round() {
                let request = op.write_request().expect("a write");
                let start = Instant::now();
                black_box(router.handle(app, &request));
                self.write_us.push(us(start.elapsed()));
                let (records, bytes) = app.wal_pressure();
                if records >= CHECKPOINT_EVERY_RECORDS {
                    self.wal_bytes_per_record
                        .push(bytes as f64 / records as f64);
                    let start = Instant::now();
                    let stats = app.checkpoint_quiescent(dir).expect("probe checkpoint");
                    self.checkpoint_ms.push(start.elapsed().as_secs_f64() * 1e3);
                    self.chunks_written.push(stats.chunks_written as f64);
                    self.chunks_reused.push(stats.chunks_reused as f64);
                }
            }
        }
    }

    fn read(
        &mut self,
        app: &App,
        router: &jacqueline::Router,
        baseline: &mut ConfVanilla,
        viewer: i64,
        page: Page,
    ) {
        let mut session = Session::new(Viewer::User(viewer));
        let table = match page {
            Page::PapersAll | Page::PapersOne(_) => "paper",
            Page::UsersAll | Page::UsersOne(_) => "user_profile",
        };
        match page {
            Page::PapersAll | Page::UsersAll => {
                let start = Instant::now();
                let rows = app.all(table).expect("query");
                let queried = Instant::now();
                black_box(session.view_rows(app, &rows).len());
                self.query_us.push(us(queried - start));
                self.resolve_us.push(us(queried.elapsed()));
            }
            Page::PapersOne(id) | Page::UsersOne(id) => {
                let start = Instant::now();
                let Ok(object) = app.get(table, id) else {
                    return;
                };
                let queried = Instant::now();
                black_box(session.view_object(app, &object));
                self.query_us.push(us(queried - start));
                self.resolve_us.push(us(queried.elapsed()));
            }
        }
        let request = page.request(viewer);
        let start = Instant::now();
        black_box(router.handle(app, &request));
        let rendered = start.elapsed();
        let start = Instant::now();
        black_box(page.baseline(baseline, viewer));
        let vanilla = start.elapsed();
        if page.is_list() {
            self.list_render_ms.push(rendered.as_secs_f64() * 1e3);
            self.baseline_list_ms.push(vanilla.as_secs_f64() * 1e3);
        } else {
            self.item_render_us.push(us(rendered));
            self.baseline_item_us.push(us(vanilla));
        }
    }
}

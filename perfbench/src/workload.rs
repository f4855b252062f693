//! What the benchmark feeds the program: a seeded conference dataset,
//! the viewer population, and per-client request streams built from
//! fixed rounds of operations.

use apps::conf;
use apps::conf_vanilla::ConfVanilla;
use jacqueline::{App, Request, Viewer};
use jbench::chaos::SplitMix64;
use microdb::Value;

/// Uniform in `0..n`.
pub fn below(rng: &mut SplitMix64, n: usize) -> usize {
    rng.below(n as u64) as usize
}

pub fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, below(rng, i + 1));
    }
}

/// `k` distinct values of `1..=n`, in draw order.
pub fn distinct(rng: &mut SplitMix64, k: usize, n: usize) -> Vec<i64> {
    let mut all: Vec<i64> = (1..=n as i64).collect();
    shuffle(rng, &mut all);
    all.truncate(k);
    all
}

/// Users and papers in every workload's dataset.
pub const USERS: usize = 1024;
pub const PAPERS: usize = 1024;
/// WAL records between scheduled checkpoints.
pub const CHECKPOINT_EVERY_RECORDS: u64 = 6000;
/// The chair's jid: user 0 of every dataset.
pub const CHAIR: i64 = 1;

const WORDS: [&str; 8] = [
    "faceted", "labels", "policies", "pruning", "joins", "views", "flows", "caches",
];

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    ReadHot,
    ReadCold,
    WriteMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "read_hot" => Some(Workload::ReadHot),
            "read_cold" => Some(Workload::ReadCold),
            "write_mix" => Some(Workload::WriteMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read_hot",
            Workload::ReadCold => "read_cold",
            Workload::WriteMix => "write_mix",
        }
    }

    /// One round of operations; each client shuffles it and draws
    /// viewers and ids per operation. Every workload has the same
    /// list : item mix (1 : 19), with `papers/all` and `papers/one`
    /// twice as frequent as their `users/` pages, so each class median
    /// sits inside one page's distribution.
    pub fn round(self) -> &'static [(Kind, usize)] {
        match self {
            Workload::ReadHot | Workload::ReadCold => &[
                (Kind::PapersAll, 2),
                (Kind::UsersAll, 1),
                (Kind::PapersOne, 38),
                (Kind::UsersOne, 19),
            ],
            Workload::WriteMix => &[
                (Kind::PapersAll, 2),
                (Kind::UsersAll, 1),
                (Kind::PapersOne, 28),
                (Kind::UsersOne, 14),
                (Kind::SubmitPaper, 1),
                (Kind::SubmitReview, 14),
            ],
        }
    }

    /// The writes of the write mix alone: the durability epilogue of
    /// the read workloads, and the probe's write replay.
    pub fn write_round() -> &'static [(Kind, usize)] {
        &[(Kind::SubmitPaper, 1), (Kind::SubmitReview, 14)]
    }

    /// Logged-in viewers.
    pub fn viewer_count(self) -> usize {
        match self {
            Workload::ReadHot => 16,
            Workload::ReadCold => USERS,
            Workload::WriteMix => 64,
        }
    }

    /// Ids per object page that `read_hot` draws from (the hot set).
    pub fn hot_ids(self) -> Option<usize> {
        (self == Workload::ReadHot).then_some(32)
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    PapersAll,
    UsersAll,
    PapersOne,
    UsersOne,
    SubmitPaper,
    SubmitReview,
}

/// A read page.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Page {
    PapersAll,
    UsersAll,
    PapersOne(i64),
    UsersOne(i64),
}

impl Page {
    pub fn is_list(self) -> bool {
        matches!(self, Page::PapersAll | Page::UsersAll)
    }

    /// The wire path with its query string.
    pub fn path(self) -> String {
        match self {
            Page::PapersAll => "papers/all".to_owned(),
            Page::UsersAll => "users/all".to_owned(),
            Page::PapersOne(id) => format!("papers/one?id={id}"),
            Page::UsersOne(id) => format!("users/one?id={id}"),
        }
    }

    pub fn request(self, viewer: i64) -> Request {
        let viewer = Viewer::User(viewer);
        match self {
            Page::PapersAll => Request::new("papers/all", viewer),
            Page::UsersAll => Request::new("users/all", viewer),
            Page::PapersOne(id) => {
                Request::new("papers/one", viewer).with_param("id", &id.to_string())
            }
            Page::UsersOne(id) => {
                Request::new("users/one", viewer).with_param("id", &id.to_string())
            }
        }
    }

    /// The hand-coded baseline's bytes for the same page.
    pub fn baseline(self, vanilla: &mut ConfVanilla, viewer: i64) -> String {
        let viewer = Viewer::User(viewer);
        match self {
            Page::PapersAll => vanilla.all_papers(&viewer),
            Page::UsersAll => vanilla.all_users(&viewer),
            Page::PapersOne(id) => vanilla.single_paper(&viewer, id),
            Page::UsersOne(id) => vanilla.single_user(&viewer, id),
        }
    }
}

/// One generated operation. `viewer` is a user jid that logged in
/// during set-up.
#[derive(Clone, Debug)]
pub enum Op {
    Read {
        viewer: i64,
        page: Page,
    },
    Paper {
        viewer: i64,
        title: String,
    },
    Review {
        viewer: i64,
        paper: i64,
        score: i64,
        text: String,
    },
}

impl Op {
    pub fn viewer(&self) -> i64 {
        match self {
            Op::Read { viewer, .. } | Op::Paper { viewer, .. } | Op::Review { viewer, .. } => {
                *viewer
            }
        }
    }

    /// `(path, form body)` of a write.
    pub fn write_form(&self) -> Option<(&'static str, String)> {
        match self {
            Op::Read { .. } => None,
            Op::Paper { title, .. } => Some(("papers/submit", format!("title={title}"))),
            Op::Review {
                paper, score, text, ..
            } => Some((
                "reviews/submit",
                format!("paper={paper}&score={score}&text={text}"),
            )),
        }
    }

    /// Applies a write to the hand-coded baseline; returns the jid it
    /// got there.
    pub fn apply(&self, baseline: &mut ConfVanilla) -> i64 {
        match self {
            Op::Paper { viewer, title } => baseline.submit_paper(&Viewer::User(*viewer), title),
            Op::Review {
                viewer,
                paper,
                score,
                text,
            } => baseline.submit_review(&Viewer::User(*viewer), *paper, *score, text),
            Op::Read { .. } => unreachable!("a read is not a write"),
        }
    }

    /// The same write as an in-process request.
    pub fn write_request(&self) -> Option<Request> {
        let viewer = Viewer::User(self.viewer());
        match self {
            Op::Read { .. } => None,
            Op::Paper { title, .. } => {
                Some(Request::new("papers/submit", viewer).with_param("title", title))
            }
            Op::Review {
                paper, score, text, ..
            } => Some(
                Request::new("reviews/submit", viewer)
                    .with_param("paper", &paper.to_string())
                    .with_param("score", &score.to_string())
                    .with_param("text", text),
            ),
        }
    }
}

/// The seeded dataset, kept as plain rows so it can populate both the
/// faceted app (timed, in set-up) and the hand-coded baseline (the
/// oracle, untimed).
pub struct Dataset {
    users: Vec<[String; 4]>,
    /// `(title, author jid)`.
    papers: Vec<(String, i64)>,
    /// `(paper jid, reviewer jid, score, text)`.
    reviews: Vec<(i64, i64, i64, String)>,
    /// `(paper jid, pc jid)`.
    conflicts: Vec<(i64, i64)>,
}

impl Dataset {
    /// `USERS` users (user 0 the chair, every tenth a PC member),
    /// `PAPERS` papers with one review each, and a PC conflict on
    /// about one paper in twenty.
    pub fn generate(seed: u64) -> Dataset {
        let mut rng = SplitMix64::new(seed ^ 0x6461_7461); // "data"
        let users: Vec<[String; 4]> = (0..USERS)
            .map(|i| {
                let level = match i {
                    0 => "chair",
                    _ if i % 10 == 1 => "pc",
                    _ => "normal",
                };
                [
                    format!("user{i}-{}", below(&mut rng, 1000)),
                    level.to_owned(),
                    format!("org{}", below(&mut rng, 7)),
                    format!("user{i}@example.org"),
                ]
            })
            .collect();
        let user = |rng: &mut SplitMix64| 1 + below(rng, USERS) as i64;
        let mut papers = Vec::with_capacity(PAPERS);
        let mut reviews = Vec::with_capacity(PAPERS);
        let mut conflicts = Vec::new();
        for i in 0..PAPERS {
            let title = format!("Paper {i}: {}", WORDS[below(&mut rng, WORDS.len())]);
            papers.push((title, user(&mut rng)));
            let text = WORDS[below(&mut rng, WORDS.len())].to_owned();
            reviews.push((
                i as i64 + 1,
                user(&mut rng),
                below(&mut rng, 5) as i64,
                text,
            ));
            if below(&mut rng, 20) == 0 {
                let pc = 2 + 10 * below(&mut rng, USERS / 10) as i64;
                conflicts.push((i as i64 + 1, pc));
            }
        }
        Dataset {
            users,
            papers,
            reviews,
            conflicts,
        }
    }

    /// Rows in every table, the phase row included.
    pub fn rows(&self) -> usize {
        1 + self.users.len() + self.papers.len() + self.reviews.len() + self.conflicts.len()
    }

    /// Populates the faceted app through `App::create`.
    pub fn populate(&self, app: &App) {
        conf::set_phase(app, conf::PHASE_REVIEW).expect("set phase");
        for (i, u) in self.users.iter().enumerate() {
            let row = u.iter().map(|s| Value::from(s.as_str())).collect();
            let jid = app.create("user_profile", row).expect("create user");
            assert_eq!(jid, i as i64 + 1, "user jids are dense");
        }
        for (i, (title, author)) in self.papers.iter().enumerate() {
            let jid = conf::submit_paper(app, &Viewer::User(*author), title).expect("paper");
            assert_eq!(jid, i as i64 + 1, "paper jids are dense");
        }
        for (paper, reviewer, score, text) in &self.reviews {
            conf::submit_review(app, &Viewer::User(*reviewer), *paper, *score, text)
                .expect("review");
        }
        for (paper, pc) in &self.conflicts {
            app.create(
                "paper_pc_conflict",
                vec![Value::Int(*paper), Value::Int(*pc)],
            )
            .expect("conflict");
        }
    }

    /// The hand-coded baseline over the same rows.
    pub fn baseline(&self) -> ConfVanilla {
        let mut vanilla = ConfVanilla::new();
        vanilla.set_phase(conf::PHASE_REVIEW);
        for u in &self.users {
            let row = u.iter().map(|s| Value::from(s.as_str())).collect();
            vanilla
                .db
                .insert("user_profile", row)
                .expect("baseline user");
        }
        for (title, author) in &self.papers {
            vanilla.submit_paper(&Viewer::User(*author), title);
        }
        for (paper, reviewer, score, text) in &self.reviews {
            vanilla.submit_review(&Viewer::User(*reviewer), *paper, *score, text);
        }
        for (paper, pc) in &self.conflicts {
            vanilla
                .db
                .insert(
                    "paper_pc_conflict",
                    vec![Value::Int(*paper), Value::Int(*pc)],
                )
                .expect("baseline conflict");
        }
        vanilla
    }
}

/// Who logs in and which ids the object pages draw from.
pub struct Population {
    pub viewers: Vec<i64>,
    pub paper_ids: Vec<i64>,
    pub user_ids: Vec<i64>,
}

impl Population {
    pub fn new(workload: Workload, seed: u64) -> Population {
        let mut rng = SplitMix64::new(seed ^ 0x7669_6577); // "view"
        let viewers = match workload.viewer_count() {
            n if n >= USERS => (1..=USERS as i64).collect(),
            n => distinct(&mut rng, n, USERS),
        };
        let (paper_ids, user_ids) = match workload.hot_ids() {
            Some(k) => (distinct(&mut rng, k, PAPERS), distinct(&mut rng, k, USERS)),
            None => ((1..=PAPERS as i64).collect(), (1..=USERS as i64).collect()),
        };
        Population {
            viewers,
            paper_ids,
            user_ids,
        }
    }

    /// Every (viewer, page) key `read_hot` can draw: its warm-up set.
    pub fn all_keys(&self) -> Vec<(i64, Page)> {
        let mut keys = Vec::new();
        for &v in &self.viewers {
            keys.push((v, Page::PapersAll));
            keys.push((v, Page::UsersAll));
            keys.extend(self.paper_ids.iter().map(|&id| (v, Page::PapersOne(id))));
            keys.extend(self.user_ids.iter().map(|&id| (v, Page::UsersOne(id))));
        }
        keys
    }
}

/// One client's operation stream: whole shuffled rounds of the
/// workload's mix. Stream `k` of seed `s` is the same sequence on
/// every run.
pub struct Stream<'p> {
    rng: SplitMix64,
    population: &'p Population,
    tag: String,
    kinds: Vec<Kind>,
    written: usize,
}

impl<'p> Stream<'p> {
    pub fn new(round: &[(Kind, usize)], population: &'p Population, seed: u64, k: u64) -> Self {
        let kinds = round
            .iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .collect();
        Stream {
            rng: SplitMix64::new(seed ^ (k + 1).wrapping_mul(0x5851_F42D_4C95_7F2D)),
            population,
            tag: format!("{seed}-{k}"),
            kinds,
            written: 0,
        }
    }

    /// Operations per round.
    pub fn round_len(&self) -> usize {
        self.kinds.len()
    }

    /// The next whole round.
    pub fn round(&mut self) -> Vec<Op> {
        let mut kinds = self.kinds.clone();
        shuffle(&mut self.rng, &mut kinds);
        kinds.into_iter().map(|kind| self.op(kind)).collect()
    }

    fn op(&mut self, kind: Kind) -> Op {
        let pop = self.population;
        let rng = &mut self.rng;
        let viewer = pop.viewers[below(rng, pop.viewers.len())];
        let mut pick = |ids: &[i64]| ids[below(rng, ids.len())];
        let read = |page| Op::Read { viewer, page };
        match kind {
            Kind::PapersAll => read(Page::PapersAll),
            Kind::UsersAll => read(Page::UsersAll),
            Kind::PapersOne => read(Page::PapersOne(pick(&pop.paper_ids))),
            Kind::UsersOne => read(Page::UsersOne(pick(&pop.user_ids))),
            Kind::SubmitPaper => {
                self.written += 1;
                Op::Paper {
                    viewer,
                    title: format!("bp-{}-{}", self.tag, self.written),
                }
            }
            Kind::SubmitReview => {
                self.written += 1;
                Op::Review {
                    viewer,
                    paper: 1 + below(rng, PAPERS) as i64,
                    score: below(rng, 5) as i64,
                    text: format!("br-{}-{}", self.tag, self.written),
                }
            }
        }
    }
}

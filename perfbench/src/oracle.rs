//! The oracle: served bytes against the hand-coded baseline built
//! from the same seed, exactly-once accounting of acknowledged
//! writes, and the recovered app against both.

use std::collections::{BTreeMap, HashMap};

use apps::conf_vanilla::ConfVanilla;
use jacqueline::{App, Router};
use jbench::chaos::SplitMix64;

use crate::client::{body_hash, Acked, Conn};
use crate::workload::{shuffle, Op, Page, Population, Workload, CHAIR};

/// Problems found, reported on standard error; the run is correct
/// when there are none.
#[derive(Default)]
pub struct Oracle {
    pub problems: Vec<String>,
}

impl Oracle {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The keys compared byte for byte: every hot key in `read_hot`;
    /// otherwise a seeded sample of the keys the measured phase
    /// served (up to 16 list pages and 200 object pages), plus the
    /// chair's `papers/all`.
    pub fn sample(
        workload: Workload,
        population: &Population,
        served: &HashMap<(i64, Page), u64>,
        seed: u64,
    ) -> Vec<(i64, Page)> {
        let mut keys = if workload == Workload::ReadHot {
            population.all_keys()
        } else {
            let mut all: Vec<(i64, Page)> = served.keys().copied().collect();
            all.sort_unstable();
            shuffle(&mut SplitMix64::new(seed ^ 0x6F72_6163), &mut all); // "orac"
            let (lists, items): (Vec<_>, Vec<_>) = all.into_iter().partition(|k| k.1.is_list());
            lists
                .into_iter()
                .take(16)
                .chain(items.into_iter().take(200))
                .collect()
        };
        if !keys.contains(&(CHAIR, Page::PapersAll)) {
            keys.push((CHAIR, Page::PapersAll));
        }
        keys
    }

    /// Fetches every key over `conn` and compares the bytes with the
    /// baseline's page and, where given, with the hash each key had
    /// during the measured phase. Returns the served bytes.
    pub fn served_matches_baseline(
        &mut self,
        conn: &mut Conn<'_>,
        keys: &[(i64, Page)],
        baseline: &mut ConfVanilla,
        phase: Option<&HashMap<(i64, Page), u64>>,
    ) -> BTreeMap<(i64, Page), Vec<u8>> {
        let mut served = BTreeMap::new();
        for &(viewer, page) in keys {
            let response = conn.send(&Op::Read { viewer, page }, false);
            let expected = page.baseline(baseline, viewer);
            self.check(response.status == 200, || {
                format!(
                    "{} for user {viewer}: status {}",
                    page.path(),
                    response.status
                )
            });
            self.check(response.body == expected.as_bytes(), || {
                format!(
                    "{} for user {viewer}: served bytes differ from the baseline",
                    page.path()
                )
            });
            if let Some(&hash) = phase.and_then(|p| p.get(&(viewer, page))) {
                self.check(body_hash(&response.body) == hash, || {
                    format!(
                        "{} for user {viewer}: bytes changed after the phase",
                        page.path()
                    )
                });
            }
            served.insert((viewer, page), response.body);
        }
        served
    }

    /// Applies the acknowledged writes to the baseline, table by table
    /// in the jid order the server returned; the baseline must hand
    /// out the same jids, so no write was lost, doubled or reordered.
    pub fn apply_writes(&mut self, baseline: &mut ConfVanilla, acked: &[Acked]) {
        let mut ordered: Vec<&Acked> = acked.iter().collect();
        ordered.sort_by_key(|a| (matches!(a.op, Op::Review { .. }), a.jid));
        for a in ordered {
            let jid = a.op.apply(baseline);
            self.check(jid == a.jid, || {
                format!(
                    "write acknowledged as jid {} lands at {jid} in the baseline",
                    a.jid
                )
            });
        }
    }

    /// Every acknowledged paper appears exactly once on the chair's
    /// `papers/all`, and every acknowledged review exactly once on
    /// the chair's page of its paper.
    pub fn exactly_once(&mut self, chair: &mut Conn<'_>, acked: &[Acked]) {
        let all = chair.send(
            &Op::Read {
                viewer: CHAIR,
                page: Page::PapersAll,
            },
            false,
        );
        let all = all.text();
        let mut reviews: BTreeMap<i64, Vec<&str>> = BTreeMap::new();
        for a in acked {
            match &a.op {
                Op::Paper { title, .. } => {
                    let n = all.matches(&format!("\n{title} by ")).count();
                    self.check(n == 1, || format!("paper {title:?} listed {n} times"));
                }
                Op::Review { paper, text, .. } => reviews.entry(*paper).or_default().push(text),
                Op::Read { .. } => {}
            }
        }
        for (paper, texts) in reviews {
            let page = chair
                .send(
                    &Op::Read {
                        viewer: CHAIR,
                        page: Page::PapersOne(paper),
                    },
                    false,
                )
                .text();
            for text in texts {
                let n = page.matches(&format!(" — {text}\n")).count();
                self.check(n == 1, || format!("review {text:?} shown {n} times"));
            }
        }
    }

    /// The recovered app renders every key exactly as the server did
    /// before shutdown, which already matched the baseline.
    pub fn recovered_matches(&mut self, app: &App, served: &BTreeMap<(i64, Page), Vec<u8>>) {
        let router: Router = apps::conf::router();
        for (&(viewer, page), bytes) in served {
            let response = router.handle(app, &page.request(viewer));
            self.check(response.body.as_bytes() == bytes.as_slice(), || {
                format!("{} for user {viewer}: recovered bytes differ", page.path())
            });
        }
    }
}

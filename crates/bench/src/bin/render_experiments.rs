//! Renders `EXPERIMENTS.md` from the JSON results produced by `run_all`,
//! embedding the paper's reference values next to the measured ones so the
//! document is always consistent with the latest run.
//!
//! ```sh
//! cargo run --release -p tm-bench --bin run_all
//! cargo run --release -p tm-bench --bin render_experiments
//! ```
//!
//! Every exhibit of `tm_bench::experiments::EXHIBITS` gets one section. A
//! results file that is missing, empty or not JSON, or that lacks a key a
//! section reads, exits non-zero with a message naming the file and the
//! key.

use std::fmt::Write as _;
use std::fs;
use tm_bench::experiments::EXHIBITS;
use tm_bench::perf::{parse_json, Json};
use tm_bench::report::results_dir;

/// Appends one line to the document; writing to a `String` cannot fail.
macro_rules! md {
    ($($arg:tt)*) => {
        writeln!($($arg)*).expect("writing to a String")
    };
}

/// A value inside one results file, with the path that reached it, so a
/// lookup that fails can say where.
#[derive(Clone)]
struct At<'a> {
    file: &'a str,
    path: String,
    v: &'a Json,
}

fn fail(file: &str, msg: &str) -> ! {
    eprintln!("render_experiments: results/{file}.json: {msg}");
    std::process::exit(1)
}

impl<'a> At<'a> {
    fn wrong(&self, want: &str) -> ! {
        let path = if self.path.is_empty() {
            "the document"
        } else {
            &self.path
        };
        fail(self.file, &format!("{path} is not {want}"))
    }

    fn child(&self, path: String, v: &'a Json) -> At<'a> {
        At {
            file: self.file,
            path,
            v,
        }
    }

    fn key_path(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// The value under `key`.
    fn get(&self, key: &str) -> At<'a> {
        let Json::Obj(_) = self.v else {
            self.wrong("an object")
        };
        match self.v.get(key) {
            Some(v) => self.child(self.key_path(key), v),
            None => fail(self.file, &format!("missing key {}", self.key_path(key))),
        }
    }

    /// Element `i` of an array.
    fn at(&self, i: usize) -> At<'a> {
        let items = self.arr();
        match items.get(i) {
            Some(item) => item.clone(),
            None => fail(self.file, &format!("missing key {}[{i}]", self.path)),
        }
    }

    fn arr(&self) -> Vec<At<'a>> {
        let Json::Arr(items) = self.v else {
            self.wrong("an array")
        };
        let at = |(i, v)| self.child(format!("{}[{i}]", self.path), v);
        items.iter().enumerate().map(at).collect()
    }

    /// An object's fields in order.
    fn fields(&self) -> Vec<(&'a str, At<'a>)> {
        let Json::Obj(fields) = self.v else {
            self.wrong("an object")
        };
        fields
            .iter()
            .map(|(k, v)| (k.as_str(), self.child(self.key_path(k), v)))
            .collect()
    }

    /// A number; `null`, how the encoder writes a non-finite one, is NaN.
    fn num(&self) -> f64 {
        match self.v {
            Json::Num(n) => *n,
            Json::Null => f64::NAN,
            _ => self.wrong("a number"),
        }
    }

    fn str(&self) -> &'a str {
        self.v.as_str().unwrap_or_else(|| self.wrong("a string"))
    }

    /// An optional FPS: `-` for `null`, as the paper prints it.
    fn opt_fps(&self) -> String {
        match self.v {
            Json::Null => "-".to_string(),
            _ => format!("{:.2}", self.num()),
        }
    }
}

fn load(file: &str) -> Json {
    let path = results_dir().join(format!("{file}.json"));
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(file, &format!("cannot read ({e}); run run_all first")));
    if text.trim().is_empty() {
        fail(file, "empty");
    }
    parse_json(&text).unwrap_or_else(|e| fail(file, &format!("not JSON: {e}")))
}

fn main() {
    let mut md = String::new();
    let w = &mut md;
    md!(w, "# EXPERIMENTS — paper vs. measured\n");
    md!(
        w,
        "Every table and figure of the paper's evaluation (§V), regenerated by\n\
         `cargo run --release -p tm-bench --bin run_all` and rendered by\n\
         `render_experiments`. *Runtime*/*FPS* come from the deterministic\n\
         simulated cost model (DESIGN.md §6); the **shape** — who wins, by\n\
         roughly what factor, where crossovers fall — is the reproduction\n\
         target, not the absolute numbers from the authors' Xeon + TITAN Xp\n\
         testbed. Substitutions are catalogued in DESIGN.md §1.\n"
    );
    for (name, _) in EXHIBITS {
        let root = load(name);
        let v = At {
            file: name,
            path: String::new(),
            v: &root,
        };
        section(w, name, &v);
    }
    md!(
        w,
        "---\n\nRegenerate with:\n\n```sh\ncargo run --release -p tm-bench --bin run_all\n\
         cargo run --release -p tm-bench --bin render_experiments\n```"
    );

    fs::write("EXPERIMENTS.md", &md).expect("write EXPERIMENTS.md");
    println!(
        "wrote EXPERIMENTS.md ({} sections, {} bytes)",
        EXHIBITS.len(),
        md.len()
    );
}

/// Renders one exhibit's section.
fn section(w: &mut String, name: &str, v: &At) {
    match name {
        "fig03_rec_k" => {
            md!(w, "## Fig. 3 — REC–K curves of the baseline\n");
            md!(
                w,
                "Paper: REC exceeds 0.95 at K ≈ 0.05 (MOT-17) and K ≈ 0.085\n\
                 (PathTrack); a small K suffices. Measured:\n"
            );
            md!(w, "| K | MOT-17 | KITTI | PathTrack |");
            md!(w, "|---|---|---|---|");
            let curves = v.arr();
            for (i, p) in v.at(0).get("points").arr().iter().enumerate() {
                let recs: Vec<String> = curves
                    .iter()
                    .map(|c| format!(" {:.3} |", c.get("points").at(i).at(1).num()))
                    .collect();
                md!(w, "| {:.3} |{}", p.at(0).num(), recs.concat());
            }
            md!(
                w,
                "\nShape check: REC rises steeply and crosses ~0.9–0.95 near\n\
                 K = 0.05, flattening after — matching the paper's trade-off\n\
                 curve and its choice of K = 5%.\n"
            );
        }
        "fig04_bl_scaling" => {
            md!(w, "## Fig. 4 — BL runtime & pair count vs. video length\n");
            md!(w, "| frames | track pairs | BL runtime (s) |");
            md!(w, "|---|---|---|");
            for p in v.arr() {
                md!(
                    w,
                    "| {} | {} | {:.0} |",
                    p.get("n_frames").num(),
                    p.get("n_pairs").num(),
                    p.get("runtime_s").num()
                );
            }
            md!(
                w,
                "\nPaper: pairs and runtime grow steeply with the video length —\n\
                 the scalability wall motivating TMerge. Each length is its own\n\
                 generated scene, so the series need not rise at every step.\n"
            );
        }
        "fig05_rec_fps" | "fig06_rec_fps_batched" => {
            let (title, note) = if name == "fig05_rec_fps" {
                (
                    "Fig. 5 — REC–FPS curves (CPU)",
                    "Paper: at equal REC, TMerge is 10–100× faster than PS and BL and \
                     moderately faster than LCB.",
                )
            } else {
                (
                    "Fig. 6 — REC–FPS curves, batched (-B) variants",
                    "Paper: batching multiplies TMerge's throughput (B=100 > B=10) but \
                     barely helps LCB-B, whose iterations are sequentially dependent.",
                )
            };
            md!(w, "## {title}\n\n{note}\n");
            for ds in v.arr() {
                md!(
                    w,
                    "### {} ({})\n",
                    ds.get("dataset").str(),
                    ds.get("device").str()
                );
                curve_table(w, "algorithm", &ds.get("curves"));
            }
        }
        "table2_fps" => {
            md!(w, "## Table II — FPS at REC = 0.80 / 0.93 on MOT-17\n");
            md!(
                w,
                "Paper (their testbed): CPU BL -/0.27, PS 1.16/0.32, LCB 5.68/4.45,\n\
                 TMerge 19.26/6.10; B=10: BL-B -/2.50, PS-B 13.47/2.98, LCB-B\n\
                 53.74/34.79, TMerge-B 108.84/70.40; B=100: BL-B -/4.85, PS-B\n\
                 19.42/5.58, LCB-B 52.74/39.20, TMerge-B 254.77/106.20.\n\nMeasured:\n"
            );
            md!(w, "| method | REC=0.80 | REC=0.93 |");
            md!(w, "|---|---|---|");
            let row = |w: &mut String, r: &At, batch: &str| {
                md!(
                    w,
                    "| {}{batch} | {} | {} |",
                    r.get("method").str(),
                    r.get("fps_at_080").opt_fps(),
                    r.get("fps_at_093").opt_fps()
                );
            };
            for r in v.get("cpu").arr() {
                row(w, &r, "");
            }
            for (batch, rows) in v.get("gpu").fields() {
                for r in rows.arr() {
                    row(w, &r, &format!(" ({batch})"));
                }
            }
            md!(
                w,
                "\nPaper's shape: TMerge > LCB > PS ≫ BL at both REC targets;\n\
                 TMerge-B gains the most from batching and gains again from\n\
                 B=10 → B=100, while LCB-B is flat in B. Absolute FPS differ\n\
                 (different substrate and cost normalization). Each FPS is\n\
                 interpolated between the two sweep points whose REC brackets\n\
                 the target, so where a method's curve levels off near a target\n\
                 the figure reads that plateau, and the ordering there is\n\
                 fragile.\n"
            );
        }
        "fig07_tau_sweep" => {
            md!(w, "## Fig. 7 — TMerge-B (B=10) runtime & REC vs. τ_max\n");
            md!(w, "| τ_max | REC | runtime (s) | cache hit rate |");
            md!(w, "|---|---|---|---|");
            for p in v.get("points").arr() {
                md!(
                    w,
                    "| {} | {:.3} | {:.1} | {:.3} |",
                    p.get("tau_max").num(),
                    p.get("rec").num(),
                    p.get("runtime_s").num(),
                    p.get("hit_rate").num()
                );
            }
            md!(
                w,
                "\nBL-B reference: {:.0} s at REC {:.3} (paper: 2762 s).\n\n\
                 Shape check: REC climbs fast then saturates toward the BL\n\
                 ceiling; runtime grows sublinearly in τ because the feature\n\
                 cache hit rate rises — both effects the paper describes.\n",
                v.get("bl_b_runtime_s").num(),
                v.get("bl_rec").num()
            );
        }
        "fig08_ablation" | "fig10_thr_s" | "ablation_ranking" => {
            let (title, note) = match name {
                "fig08_ablation" => (
                    "Fig. 8 — ablation: BetaInit and ULB",
                    "Paper: removing BetaInit hurts most (≈1.7× slower at equal REC); \
                     removing ULB also hurts, less.",
                ),
                "fig10_thr_s" => (
                    "Fig. 10 — sensitivity to thr_S",
                    "Paper: BetaInit off is worst; thr_S = 200 beats 300 by ≈40% at \
                     REC = 0.89.",
                ),
                _ => (
                    "Ranking ablation (this reproduction's documented deviation)",
                    "REC–FPS of the default prior-shrunk continuous ranking vs. the \
                     literal `S/(S+F)` Bernoulli posterior (DESIGN.md §1).",
                ),
            };
            md!(w, "## {title}\n\n{note}\n");
            curve_table(w, "variant", &v.get("curves"));
        }
        "fig09_window_len" => {
            md!(w, "## Fig. 9 — REC vs. window length L (PathTrack)\n");
            md!(
                w,
                "Paper: L = 1000 < 2·L_max loses polyonymous pairs that span more\n\
                 than two windows; for L ≥ 2000 both algorithms are insensitive.\n"
            );
            md!(w, "| L | BL REC | TMerge REC | pairs |");
            md!(w, "|---|---|---|---|");
            for p in v.arr() {
                md!(
                    w,
                    "| {} | {:.3} | {:.3} | {} |",
                    p.get("window_len").num(),
                    p.get("bl_rec").num(),
                    p.get("tmerge_rec").num(),
                    p.get("n_pairs").num()
                );
            }
            md!(w);
        }
        "fig11_poly_rate" => {
            md!(w, "## Fig. 11 — polyonymous rate with/without TMerge\n");
            md!(
                w,
                "Paper: TMerge reduces every tracker's polyonymous rate by more\n\
                 than 10×; Tracktor fragments least.\n"
            );
            md!(w, "| tracker | without | with TMerge | reduction |");
            md!(w, "|---|---|---|---|");
            for r in v.arr() {
                let wo = r.get("rate_without").num();
                let wi = r.get("rate_with").num();
                let reduction = if wi > 0.0 {
                    format!("{:.1}×", wo / wi)
                } else {
                    "∞".to_string()
                };
                md!(
                    w,
                    "| {} | {:.3}% | {:.3}% | {reduction} |",
                    r.get("tracker").str(),
                    100.0 * wo,
                    100.0 * wi
                );
            }
            md!(w);
        }
        "fig12_id_metrics" => {
            md!(
                w,
                "## Fig. 12 — identity metrics with/without TMerge (Tracktor)\n"
            );
            md!(
                w,
                "Paper: IDF1 improves by ≈5 points; IDP and IDR both improve.\n"
            );
            md!(w, "| | IDF1 | IDP | IDR | IDSW | MOTA | HOTA | AssA |");
            md!(w, "|---|---|---|---|---|---|---|---|");
            for (label, key, i) in [("without TMerge", "without", 0), ("with TMerge", "with", 1)] {
                let ids = v.get(key);
                md!(
                    w,
                    "| {label} | {:.3} | {:.3} | {:.3} | {} | {:.3} | {:.3} | {:.3} |",
                    ids.get("idf1").num(),
                    ids.get("idp").num(),
                    ids.get("idr").num(),
                    v.get("id_switches").at(i).num(),
                    v.get("mota").at(i).num(),
                    v.get("hota").at(i).num(),
                    v.get("ass_a").at(i).num()
                );
            }
            md!(w);
        }
        "fig13_query_recall" => {
            md!(w, "## Fig. 13 — query recall with/without TMerge\n");
            md!(
                w,
                "Paper: Count recall rises from <75% to >95%; Co-occurrence from\n\
                 88% to 95%.\n"
            );
            md!(w, "| query | without | with TMerge |");
            md!(w, "|---|---|---|");
            for (label, key) in [
                ("Count (>200 frames)", "count"),
                ("Co-occurring objects (3, >50 frames)", "co_occurrence"),
            ] {
                let r = v.get(key);
                md!(
                    w,
                    "| {label} | {:.3} | {:.3} |",
                    r.at(0).num(),
                    r.at(1).num()
                );
            }
            md!(w);
        }
        "regret_curve" => {
            md!(
                w,
                "## §IV-E — average regret of TMerge (extension exhibit)\n"
            );
            md!(
                w,
                "The paper states the `O(√(|P_c|·ln τ / τ))` bound; measured\n\
                 average regret (window of {} pairs, s̃_min = {:.3}):\n",
                v.get("n_pairs").num(),
                v.get("s_min").num()
            );
            md!(w, "| τ | R(τ) | bound shape |");
            md!(w, "|---|---|---|");
            for p in v.get("points").arr() {
                md!(
                    w,
                    "| {} | {:.4} | {:.4} |",
                    p.get("tau").num(),
                    p.get("avg_regret").num(),
                    p.get("bound_shape").num()
                );
            }
            md!(
                w,
                "\nShape check: R(τ) decreases with τ and stays below the bound\n\
                 shape's envelope, i.e. sampling concentrates on low-score pairs.\n"
            );
        }
        "corr_analysis" => {
            md!(
                w,
                "## §IV-C footnote 4 — score correlations (extension exhibit)\n"
            );
            md!(
                w,
                "Paper: Pearson(score, DisS) ≥ 0.3, motivating BetaInit;\n\
                 Pearson(score, DisT) < 0.1, so temporal distance is ignored.\n"
            );
            md!(
                w,
                "| dataset | corr(score, DisS) | corr(score, DisT) | P(DisS<200 \\| poly) \
                 | P(DisS<200 \\| distinct) | pairs |"
            );
            md!(w, "|---|---|---|---|---|---|");
            for r in v.arr() {
                md!(
                    w,
                    "| {} | {:.3} | {:.3} | {:.3} | {:.3} | {} |",
                    r.get("dataset").str(),
                    r.get("corr_spatial").num(),
                    r.get("corr_temporal").num(),
                    r.get("poly_within_thr").num(),
                    r.get("distinct_within_thr").num(),
                    r.get("n_pairs").num()
                );
            }
            md!(
                w,
                "\nThe simulator reproduces the *sign and usefulness* of the\n\
                 spatial prior (polyonymous pairs concentrate below thr_S, which\n\
                 is all BetaInit consumes), not the paper's global Pearson\n\
                 magnitude — that is driven by background bleed in real ReID\n\
                 crops, a pixel-level effect outside this simulation's scope.\n"
            );
        }
        _ => fail(name, "no section renders this exhibit"),
    }
}

/// One table row per curve point: `label | param | REC | FPS`.
fn curve_table(w: &mut String, label: &str, curves: &At) {
    md!(w, "| {label} | param | REC | FPS |");
    md!(w, "|---|---|---|---|");
    for (name, points) in curves.fields() {
        for p in points.arr() {
            md!(
                w,
                "| {name} | {} | {:.3} | {:.2} |",
                p.get("param").str(),
                p.get("rec").num(),
                p.get("fps").num()
            );
        }
    }
    md!(w);
}

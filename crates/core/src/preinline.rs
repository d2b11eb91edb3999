//! The context-sensitive pre-inliner (paper §III.B, Algorithms 2 and 3).
//!
//! Runs *offline, as part of profile generation*, making global top-down
//! inline decisions over the profiled call graph — the paper's workaround
//! for ThinLTO-style isolated compilation, where cross-module profile
//! adjustment at compile time is impossible.
//!
//! * **Algorithm 3** extracts context-sensitive function sizes from the
//!   profiling *binary* ("usually more accurate than cost estimate on
//!   early-stage IR"; "extracted size can often accurately tell the
//!   pre-inliner that certain functions will eventually be fully optimized
//!   away").
//! * **Algorithm 2** walks functions top-down, pulls the most beneficial
//!   candidates off a queue, marks their contexts inlined under a size
//!   budget, and merges not-inlined context profiles back into base
//!   profiles.
//!
//! The decisions are persisted as inline paths (call-site probe chains) that
//! the compiler's sample loader replays
//! ([`crate::annotate::csspgo_annotate`]).

use crate::context::{ContextNode, ContextProfile, FrameKey};
use csspgo_codegen::Binary;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// The parameter type of [`run_preinliner`]. It has no fields: the
/// pre-inliner has one configuration, and its thresholds are constants
/// beside the code that reads them.
#[derive(Clone, Copy, Debug, Default)]
pub struct PreInlineConfig {}

/// **Algorithm 3**: context-sensitive function sizes extracted from the
/// profiling binary. Keys are GUID paths (outermost function first).
fn context_sizes(binary: &Binary) -> HashMap<Vec<u64>, u64> {
    let mut sizes: HashMap<Vec<u64>, u64> = HashMap::new();
    for idx in 0..binary.len() {
        let mut path: Vec<u64> = binary
            .inlined_funcs(idx)
            .map(|f| binary.funcs[f.index()].guid)
            .collect();
        if path.is_empty() {
            continue;
        }
        let size = binary.insts[idx].size as u64;
        *sizes.entry(path.clone()).or_insert(0) += size;
        // Ensure every ancestor context exists (possibly at 0), so "fully
        // optimized away" inline instances are distinguishable from
        // "unknown".
        while path.len() > 1 {
            path.pop();
            sizes.entry(path.clone()).or_insert(0);
        }
    }
    sizes
}

/// The pre-inliner outcome.
#[derive(Clone, Debug, Default)]
pub struct PreInlineResult {
    /// Decided inline chains, as call-site frame paths (outer→inner).
    pub plan_paths: Vec<Vec<FrameKey>>,
    /// Contexts considered.
    pub considered: usize,
    /// Contexts inlined.
    pub inlined: usize,
}

/// Standalone (context-free) size of a function in the binary.
fn standalone_size(binary: &Binary, guid: u64) -> u64 {
    binary
        .func_by_guid(guid)
        .map(|f| {
            let hot: u64 = (f.hot_range.0..f.hot_range.1)
                .map(|i| binary.insts[i].size as u64)
                .sum();
            let cold: u64 = (f.cold_range.0..f.cold_range.1)
                .map(|i| binary.insts[i].size as u64)
                .sum();
            hot + cold
        })
        .unwrap_or(u64::MAX / 4)
}

/// **Algorithm 2**: top-down pre-inlining over the context trie. Mutates
/// `profile` (inlined marks, promotion of not-inlined contexts into base
/// profiles) and returns the decided plan.
pub fn run_preinliner(
    profile: &mut ContextProfile,
    binary: &Binary,
    _: &PreInlineConfig,
) -> PreInlineResult {
    /// Call-site sample total at or above which a context is hot, at the
    /// least.
    const HOT_THRESHOLD: u64 = 24;

    let sizes = context_sizes(binary);
    let size_of = |path: &[u64]| -> u64 {
        sizes
            .get(path)
            .copied()
            .unwrap_or_else(|| standalone_size(binary, *path.last().expect("non-empty path")))
    };

    let mut result = PreInlineResult::default();
    let mut processed: HashSet<u64> = HashSet::new();
    let mut promotions: Vec<(u64, ContextNode)> = Vec::new();

    // Call hotness (Algorithm 2's `GetCallHotness`): the call-site probe's
    // count in the caller (covers inlined call sites) plus physically
    // observed call edges, judged *relative* to the whole profile (a
    // ProfileSummary-style cutoff) with `HOT_THRESHOLD` as an absolute
    // floor.
    let hot_cutoff = HOT_THRESHOLD.max(profile.total() / 256);

    // Top-down: repeatedly process the hottest unprocessed root. Promotions
    // of not-inlined contexts create/augment other roots, which are then
    // processed in turn.
    loop {
        let next = profile
            .roots
            .iter()
            .filter(|(g, _)| !processed.contains(*g))
            .max_by_key(|(g, n)| (n.total(), u64::MAX - **g));
        let Some((&root_guid, _)) = next else { break };
        processed.insert(root_guid);

        let mut root = profile
            .roots
            .remove(&root_guid)
            .expect("root selected above");
        process_root(
            &mut root,
            root_guid,
            &size_of,
            hot_cutoff,
            &mut result,
            &mut promotions,
        );
        profile.roots.insert(root_guid, root);

        // Merge promotions structurally into their functions' base roots.
        for (guid, node) in promotions.drain(..) {
            merge_structural(profile.roots.entry(guid).or_default(), node);
        }
    }
    result
}

/// Candidate in the benefit queue: ordered by call hotness (entries into
/// the context), identified by its child-key path from the root.
#[derive(PartialEq, Eq)]
struct Candidate {
    hotness: u64,
    path: Vec<(u32, u64)>,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.hotness
            .cmp(&other.hotness)
            .then_with(|| other.path.cmp(&self.path))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

fn node_mut<'a>(root: &'a mut ContextNode, path: &[(u32, u64)]) -> &'a mut ContextNode {
    let mut cur = root;
    for key in path {
        cur = cur.children.get_mut(key).expect("path stays valid");
    }
    cur
}

fn process_root(
    root: &mut ContextNode,
    root_guid: u64,
    size_of: &dyn Fn(&[u64]) -> u64,
    hot_cutoff: u64,
    result: &mut PreInlineResult,
    promotions: &mut Vec<(u64, ContextNode)>,
) {
    /// Maximum callee size (bytes) a hot call site inlines.
    const SIZE_LIMIT: u64 = 280;
    /// A function stops growing past `GROWTH_FACTOR ×` its original size
    /// (Algorithm 2's `FuncSize < Limit`), floored by `GROWTH_FLOOR` bytes
    /// so small functions can still absorb a helper.
    const GROWTH_FACTOR: u64 = 3;
    /// Absolute floor for the per-function growth budget, in bytes.
    const GROWTH_FLOOR: u64 = 400;

    let call_hotness = |parent: &ContextNode, key: (u32, u64)| -> u64 {
        parent.probes.get(&key.0).copied().unwrap_or(0)
            + parent.children.get(&key).map(|c| c.entry).unwrap_or(0)
    };
    let mut func_size = size_of(&[root_guid]);
    let growth_limit = (func_size * GROWTH_FACTOR).max(GROWTH_FLOOR);
    let mut queue: BinaryHeap<Candidate> = BinaryHeap::new();
    for key in root.children.keys() {
        queue.push(Candidate {
            hotness: call_hotness(root, *key),
            path: vec![*key],
        });
    }

    let mut inlined_paths: HashSet<Vec<(u32, u64)>> = HashSet::new();
    while let Some(cand) = queue.pop() {
        result.considered += 1;
        // GUID path for the size table: root plus each callee on the way.
        let mut guid_path = vec![root_guid];
        guid_path.extend(cand.path.iter().map(|&(_, callee)| callee));
        let cand_size = size_of(&guid_path);
        let hot = cand.hotness >= hot_cutoff;
        let should = func_size < growth_limit && hot && cand_size <= SIZE_LIMIT;
        let node = node_mut(root, &cand.path);
        if should {
            node.inlined = true;
            result.inlined += 1;
            func_size += cand_size;
            inlined_paths.insert(cand.path.clone());
            let keys: Vec<(u32, u64)> = node.children.keys().copied().collect();
            let hots: Vec<u64> = keys.iter().map(|k| call_hotness(node, *k)).collect();
            for (key, hot) in keys.into_iter().zip(hots) {
                let mut p = cand.path.clone();
                p.push(key);
                queue.push(Candidate {
                    hotness: hot,
                    path: p,
                });
            }
            // Record the plan path: frame k is (function containing the
            // call-site probe, probe index).
            let mut frames = Vec::with_capacity(cand.path.len());
            let mut host = root_guid;
            for &(probe, callee) in &cand.path {
                frames.push(FrameKey { guid: host, probe });
                host = callee;
            }
            result.plan_paths.push(frames);
        }
    }

    // Detach every not-inlined child context (whose parent chain is fully
    // inlined or the root) for promotion into its own base profile.
    detach_not_inlined(root, promotions);
}

/// Removes not-inlined children (recursively stopping at them) and queues
/// them, each with its function, for base-profile promotion.
fn detach_not_inlined(node: &mut ContextNode, promotions: &mut Vec<(u64, ContextNode)>) {
    let keys: Vec<(u32, u64)> = node.children.keys().copied().collect();
    for key in keys {
        let inlined = node.children[&key].inlined;
        if inlined {
            detach_not_inlined(node.children.get_mut(&key).expect("child"), promotions);
        } else {
            let child = node.children.remove(&key).expect("child");
            promotions.push((key.1, child));
        }
    }
}

/// Structurally merges `src` into `dst` (same function).
fn merge_structural(dst: &mut ContextNode, src: ContextNode) {
    dst.entry += src.entry;
    if dst.checksum == 0 {
        dst.checksum = src.checksum;
    }
    for (p, c) in src.probes {
        *dst.probes.entry(p).or_insert(0) += c;
    }
    for (key, child) in src.children {
        merge_structural(dst.children.entry(key).or_default(), child);
    }
}

/// Converts guid-based plan paths into an IR [`csspgo_ir::InlinePlan`] for
/// a concrete (fresh) module.
pub fn to_inline_plan(
    paths: &[Vec<FrameKey>],
    module: &csspgo_ir::Module,
) -> csspgo_ir::InlinePlan {
    let by_guid: HashMap<u64, csspgo_ir::FuncId> =
        module.functions.iter().map(|f| (f.guid, f.id)).collect();
    let mut plan = csspgo_ir::InlinePlan::new();
    'outer: for path in paths {
        let mut sites = Vec::with_capacity(path.len());
        for frame in path {
            let Some(&fid) = by_guid.get(&frame.guid) else {
                continue 'outer;
            };
            sites.push(csspgo_ir::ProbeSite {
                func: fid,
                probe_index: frame.probe,
            });
        }
        if !sites.is_empty() {
            plan.add(sites);
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use csspgo_codegen::{lower_module, CodegenConfig};

    fn fk(guid: u64, probe: u32) -> FrameKey {
        FrameKey { guid, probe }
    }

    /// A tiny binary for size lookups.
    fn tiny_binary() -> Binary {
        let src = "fn hot(x) { return x + 1; }\nfn cold(x) { return x - 1; }\nfn main(a) { return hot(a) + cold(a); }";
        let m = csspgo_lang::compile(src, "t").unwrap();
        lower_module(&m, &CodegenConfig::default())
    }

    #[test]
    fn algorithm3_sizes_cover_functions() {
        let b = tiny_binary();
        let sizes = context_sizes(&b);
        let main_guid = b.func_by_name("main").unwrap().guid;
        assert!(sizes[&vec![main_guid]] > 0);
    }

    #[test]
    fn algorithm3_tracks_inlined_instances() {
        let src = "fn h(x) { return x + 1; }\nfn main(a) { return h(a); }";
        let mut m = csspgo_lang::compile(src, "t").unwrap();
        csspgo_opt::run_pipeline(&mut m, &csspgo_opt::OptConfig::default());
        let b = lower_module(&m, &CodegenConfig::default());
        let sizes = context_sizes(&b);
        let main_guid = b.func_by_name("main").unwrap().guid;
        let h_guid = b.func_by_name("h").unwrap().guid;
        assert!(
            sizes.contains_key(&vec![main_guid, h_guid]),
            "inlined instance of h must have a context size: {sizes:?}"
        );
    }

    #[test]
    fn hot_context_inlined_cold_promoted() {
        let b = tiny_binary();
        let hot_guid = b.func_by_name("hot").unwrap().guid;
        let cold_guid = b.func_by_name("cold").unwrap().guid;
        let main_guid = b.func_by_name("main").unwrap().guid;
        let mut cp = ContextProfile::new();
        cp.add_probe_hit(&[], main_guid, 1, 50);
        cp.add_probe_hit(&[fk(main_guid, 3)], hot_guid, 1, 500);
        cp.add_entry(&[fk(main_guid, 3)], hot_guid, 500);
        cp.add_probe_hit(&[fk(main_guid, 4)], cold_guid, 1, 2);
        cp.add_entry(&[fk(main_guid, 4)], cold_guid, 2);

        let result = run_preinliner(&mut cp, &b, &PreInlineConfig::default());
        assert_eq!(result.inlined, 1, "only the hot context inlines");
        assert_eq!(result.plan_paths, vec![vec![fk(main_guid, 3)]]);
        // Hot context still nested & marked.
        let hot_node = cp.roots[&main_guid]
            .children
            .get(&(3, hot_guid))
            .expect("hot child kept");
        assert!(hot_node.inlined);
        // Cold context promoted to its own base.
        assert!(cp.roots.contains_key(&cold_guid));
        assert_eq!(cp.roots[&cold_guid].probes[&1], 2);
    }

    #[test]
    fn growth_limit_stops_inlining() {
        // A hundred equally hot call sites of `hot` in `main`, each within
        // the size limit: only the growth budget, max(3 × main's size, 400)
        // bytes, stops inlining, right after the site that takes `main` to
        // it.
        let b = tiny_binary();
        let hot_guid = b.func_by_name("hot").unwrap().guid;
        let main_guid = b.func_by_name("main").unwrap().guid;
        let sites = 100u32;
        let mut cp = ContextProfile::new();
        for probe in 1000..1000 + sites {
            cp.add_probe_hit(&[fk(main_guid, probe)], hot_guid, 1, 500);
            cp.add_entry(&[fk(main_guid, probe)], hot_guid, 500);
        }
        let main_size = context_sizes(&b)[&vec![main_guid]];
        let budget = (3 * main_size).max(400);
        let admitted = (budget - main_size).div_ceil(standalone_size(&b, hot_guid));
        assert!(admitted > 0 && admitted < u64::from(sites), "{admitted}");

        let result = run_preinliner(&mut cp, &b, &PreInlineConfig::default());
        assert_eq!(result.considered, sites as usize);
        assert_eq!(result.inlined as u64, admitted);
    }

    #[test]
    fn plan_conversion_maps_guids_to_func_ids() {
        let src = "fn hot(x) { return x + 1; }\nfn main(a) { return hot(a); }";
        let m = csspgo_lang::compile(src, "t").unwrap();
        let main_guid = m.functions[m.find_function("main").unwrap().index()].guid;
        let paths = vec![vec![fk(main_guid, 2)]];
        let plan = to_inline_plan(&paths, &m);
        assert_eq!(plan.len(), 1);
        let main_id = m.find_function("main").unwrap();
        assert!(plan.should_inline(&[csspgo_ir::ProbeSite {
            func: main_id,
            probe_index: 2
        }]));
    }

    #[test]
    fn nested_hot_chains_inline_transitively() {
        // main -(3)-> mid (hot) -(2)-> leaf (hot): both should inline.
        let src = "fn leaf(x) { return x; }\nfn mid(x) { return leaf(x); }\nfn main(a) { return mid(a); }";
        let m = csspgo_lang::compile(src, "t").unwrap();
        let b = lower_module(&m, &CodegenConfig::default());
        let g = |n: &str| b.func_by_name(n).unwrap().guid;
        let mut cp = ContextProfile::new();
        cp.add_probe_hit(&[fk(g("main"), 3)], g("mid"), 1, 500);
        cp.add_entry(&[fk(g("main"), 3)], g("mid"), 500);
        cp.add_probe_hit(&[fk(g("main"), 3), fk(g("mid"), 2)], g("leaf"), 1, 400);
        cp.add_entry(&[fk(g("main"), 3), fk(g("mid"), 2)], g("leaf"), 400);
        let result = run_preinliner(&mut cp, &b, &PreInlineConfig::default());
        assert_eq!(result.inlined, 2, "{:?}", result.plan_paths);
        assert!(result
            .plan_paths
            .contains(&vec![fk(g("main"), 3), fk(g("mid"), 2)]));
    }
}

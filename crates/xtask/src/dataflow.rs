//! Generic **worklist dataflow** over the CFGs of [`crate::cfg`].
//!
//! The three path-sensitive passes all reduce to gen/kill bit-vector
//! problems: "a governor check has executed" (forward, must ⇒ intersect),
//! "a span is open" (forward, may ⇒ union), "an error was published"
//! (forward, must). This module solves them all with one fixpoint engine:
//!
//! * facts are bits in a [`BitSet`]; transfer is `out = (in − kill) ∪ gen`;
//! * the meet over predecessor outputs is union (may) or intersection
//!   (must); the analysis direction just reverses the edges;
//! * blocks unreachable from the start node are **masked out** before the
//!   meet — otherwise dead code's gen facts would leak into must-analyses
//!   through the TOP initialization;
//! * the worklist is seeded in reverse postorder and iterated
//!   deterministically (a `VecDeque` with a membership bitmap), so the
//!   solution — and the iteration count the tests pin — is reproducible.

use std::collections::VecDeque;

use crate::cfg::Cfg;

/// A fixed-width bit set (facts are dense small integers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    nbits: usize,
}

impl BitSet {
    /// The empty set over `nbits` facts.
    pub fn empty(nbits: usize) -> Self {
        BitSet { words: vec![0; nbits.div_ceil(64)], nbits }
    }

    /// The full set over `nbits` facts (TOP for intersection meets).
    pub fn full(nbits: usize) -> Self {
        let mut s = Self::empty(nbits);
        for i in 0..nbits {
            s.insert(i);
        }
        s
    }

    pub fn insert(&mut self, bit: usize) {
        self.words[bit / 64] |= 1u64 << (bit % 64);
    }

    pub fn remove(&mut self, bit: usize) {
        self.words[bit / 64] &= !(1u64 << (bit % 64));
    }

    pub fn contains(&self, bit: usize) -> bool {
        bit < self.nbits && self.words[bit / 64] & (1u64 << (bit % 64)) != 0
    }

    /// `self ∪= other`.
    pub fn union_with(&mut self, other: &BitSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// `self ∩= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// `self −= other`.
    pub fn subtract(&mut self, other: &BitSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.nbits).filter(|&b| self.contains(b))
    }

    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// Analysis direction; backward just flips every edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Forward,
    Backward,
}

/// Meet operator over predecessor outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Meet {
    /// May-analysis: a fact holds if it holds on *some* path.
    Union,
    /// Must-analysis: a fact holds only if it holds on *every* path.
    Intersect,
}

/// The bare graph shape the solver needs (successor lists + start nodes).
#[derive(Debug)]
pub struct FlowGraph {
    pub succs: Vec<Vec<usize>>,
    pub entry: usize,
    pub exit: usize,
}

impl FlowGraph {
    pub fn from_cfg(cfg: &Cfg) -> Self {
        FlowGraph { succs: cfg.succ_ids(), entry: cfg.entry, exit: cfg.exit }
    }
}

/// The fixpoint: per-block input and output sets, plus the number of block
/// visits until convergence (pinned by tests as a determinism witness).
#[derive(Debug)]
pub struct Solution {
    pub input: Vec<BitSet>,
    pub output: Vec<BitSet>,
    pub iterations: usize,
}

/// Solve a gen/kill problem over `g`. `boundary` is the input at the start
/// node (entry for forward, exit for backward). Unreachable blocks keep
/// TOP-masked-to-bottom values and never contribute to the meet.
pub fn solve(
    g: &FlowGraph,
    gen: &[BitSet],
    kill: &[BitSet],
    nbits: usize,
    dir: Direction,
    meet: Meet,
    boundary: &BitSet,
) -> Solution {
    let n = g.succs.len();
    let (edges_out, start) = match dir {
        Direction::Forward => (g.succs.clone(), g.entry),
        Direction::Backward => {
            let mut rev = vec![Vec::new(); n];
            for (b, ss) in g.succs.iter().enumerate() {
                for &s in ss {
                    rev[s].push(b);
                }
            }
            (rev, g.exit)
        }
    };
    let mut edges_in = vec![Vec::new(); n];
    for (b, ss) in edges_out.iter().enumerate() {
        for &s in ss {
            edges_in[s].push(b);
        }
    }

    // Reachability mask from the start node, in oriented edge direction.
    let mut reach = vec![false; n];
    let mut stack = vec![start];
    reach[start] = true;
    while let Some(b) = stack.pop() {
        for &s in &edges_out[b] {
            if !reach[s] {
                reach[s] = true;
                stack.push(s);
            }
        }
    }

    let top = match meet {
        Meet::Union => BitSet::empty(nbits),
        Meet::Intersect => BitSet::full(nbits),
    };
    let mut input: Vec<BitSet> = vec![top.clone(); n];
    let mut output: Vec<BitSet> = vec![top.clone(); n];
    // Unreachable blocks contribute nothing; zero them so reads are sane.
    for b in 0..n {
        if !reach[b] {
            input[b] = BitSet::empty(nbits);
            output[b] = BitSet::empty(nbits);
        }
    }

    // Reverse postorder over the oriented edges for a deterministic seed.
    let rpo = reverse_postorder(&edges_out, start);
    let mut work: VecDeque<usize> = rpo.iter().copied().collect();
    let mut queued = vec![false; n];
    for &b in &rpo {
        queued[b] = true;
    }

    let mut iterations = 0usize;
    while let Some(b) = work.pop_front() {
        queued[b] = false;
        iterations += 1;
        let mut inp = if b == start {
            boundary.clone()
        } else {
            let mut acc = top.clone();
            let mut any = false;
            for &p in &edges_in[b] {
                if reach[p] {
                    if any {
                        match meet {
                            Meet::Union => acc.union_with(&output[p]),
                            Meet::Intersect => acc.intersect_with(&output[p]),
                        }
                    } else {
                        acc = output[p].clone();
                        any = true;
                    }
                }
            }
            acc
        };
        let mut out = inp.clone();
        out.subtract(&kill[b]);
        out.union_with(&gen[b]);
        let changed = out != output[b] || inp != input[b];
        std::mem::swap(&mut input[b], &mut inp);
        if changed {
            output[b] = out;
            for &s in &edges_out[b] {
                if reach[s] && !queued[s] {
                    queued[s] = true;
                    work.push_back(s);
                }
            }
        }
    }
    Solution { input, output, iterations }
}

/// Reverse postorder of the reachable subgraph from `start`.
fn reverse_postorder(succs: &[Vec<usize>], start: usize) -> Vec<usize> {
    let n = succs.len();
    let mut seen = vec![false; n];
    let mut post = Vec::with_capacity(n);
    // Iterative DFS with an explicit phase marker (enter/leave).
    let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
    seen[start] = true;
    while let Some((b, child)) = stack.pop() {
        if child < succs[b].len() {
            stack.push((b, child + 1));
            let s = succs[b][child];
            if !seen[s] {
                seen[s] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(b);
        }
    }
    post.reverse();
    post
}

/// Compose two sequential gen/kill transfers: running `a` then `b` is one
/// transfer with `gen = b.gen ∪ (a.gen − b.kill)`, `kill = b.kill ∪
/// (a.kill − b.gen)`. Used to fold per-statement effects into per-block
/// gen/kill sets.
pub fn compose(a_gen: &mut BitSet, a_kill: &mut BitSet, b_gen: &BitSet, b_kill: &BitSet) {
    a_gen.subtract(b_kill);
    a_gen.union_with(b_gen);
    a_kill.subtract(b_gen);
    a_kill.union_with(b_kill);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(succs: Vec<Vec<usize>>, entry: usize, exit: usize) -> FlowGraph {
        FlowGraph { succs, entry, exit }
    }

    fn bits(nbits: usize, set: &[usize]) -> BitSet {
        let mut b = BitSet::empty(nbits);
        for &i in set {
            b.insert(i);
        }
        b
    }

    #[test]
    fn bitset_ops() {
        let mut a = bits(130, &[0, 64, 129]);
        assert!(a.contains(64) && a.contains(129) && !a.contains(1));
        a.remove(64);
        assert!(!a.contains(64));
        let b = bits(130, &[0, 5]);
        a.union_with(&b);
        assert!(a.contains(5) && a.contains(0));
        a.subtract(&bits(130, &[0]));
        assert!(!a.contains(0) && a.contains(129));
        let mut c = bits(130, &[5, 6]);
        c.intersect_with(&a);
        assert_eq!(c.iter_set().collect::<Vec<_>>(), vec![5]);
    }

    /// Diamond: 0 → {1, 2} → 3. Gen in 1 only. Must-analysis: the fact
    /// does not survive the join; may-analysis: it does.
    #[test]
    fn diamond_must_vs_may() {
        let g = graph(vec![vec![1, 2], vec![3], vec![3], vec![]], 0, 3);
        let gen = vec![bits(1, &[]), bits(1, &[0]), bits(1, &[]), bits(1, &[])];
        let kill = vec![bits(1, &[]); 4];
        let must =
            solve(&g, &gen, &kill, 1, Direction::Forward, Meet::Intersect, &BitSet::empty(1));
        assert!(!must.input[3].contains(0), "one-armed fact must not survive an intersect join");
        let may = solve(&g, &gen, &kill, 1, Direction::Forward, Meet::Union, &BitSet::empty(1));
        assert!(may.input[3].contains(0), "union join keeps the one-armed fact");
    }

    /// Both arms gen ⇒ the fact survives the must join.
    #[test]
    fn diamond_both_arms_satisfy_must() {
        let g = graph(vec![vec![1, 2], vec![3], vec![3], vec![]], 0, 3);
        let gen = vec![bits(1, &[]), bits(1, &[0]), bits(1, &[0]), bits(1, &[])];
        let kill = vec![bits(1, &[]); 4];
        let must =
            solve(&g, &gen, &kill, 1, Direction::Forward, Meet::Intersect, &BitSet::empty(1));
        assert!(must.input[3].contains(0));
    }

    /// Loop: 0 → 1 → 2 → 1 (back), 1 → 3. A fact genned before the loop
    /// and killed inside must not hold at the loop exit (meet over the
    /// back edge kills it), but a fact genned in the body on every trip
    /// holds at the latch.
    #[test]
    fn loop_kill_reaches_fixpoint() {
        // 0: pre, 1: head, 2: body(kill), 3: after.
        let g = graph(vec![vec![1], vec![2, 3], vec![1], vec![]], 0, 3);
        let gen = vec![bits(1, &[0]), bits(1, &[]), bits(1, &[]), bits(1, &[])];
        let kill = vec![bits(1, &[]), bits(1, &[]), bits(1, &[0]), bits(1, &[])];
        let must =
            solve(&g, &gen, &kill, 1, Direction::Forward, Meet::Intersect, &BitSet::empty(1));
        assert!(
            !must.input[3].contains(0),
            "the fact dies around the loop: killed-in-body must not hold after the head join"
        );
    }

    #[test]
    fn loop_body_gen_holds_at_latch() {
        // 0: entry, 1: head, 2: body(gen), 3: latch, 4: after.
        let g = graph(vec![vec![1], vec![2, 4], vec![3], vec![1], vec![]], 0, 4);
        let gen = vec![bits(1, &[]), bits(1, &[]), bits(1, &[0]), bits(1, &[]), bits(1, &[])];
        let kill = vec![bits(1, &[]); 5];
        let must =
            solve(&g, &gen, &kill, 1, Direction::Forward, Meet::Intersect, &BitSet::empty(1));
        assert!(must.input[3].contains(0), "body gen reaches the latch on every trip");
    }

    /// Convergence: a nested double loop terminates and the iteration
    /// count is deterministic across runs.
    #[test]
    fn nested_loops_converge_deterministically() {
        // 0→1(outer head)→2(inner head)→3(inner body)→2, 2→4(outer latch)→1, 1→5.
        let g = graph(vec![vec![1], vec![2, 5], vec![3, 4], vec![2], vec![1], vec![]], 0, 5);
        let gen: Vec<BitSet> = (0..6).map(|b| bits(6, &[b])).collect();
        let kill = vec![bits(6, &[]); 6];
        let a = solve(&g, &gen, &kill, 6, Direction::Forward, Meet::Union, &BitSet::empty(6));
        let b = solve(&g, &gen, &kill, 6, Direction::Forward, Meet::Union, &BitSet::empty(6));
        assert_eq!(a.iterations, b.iterations, "deterministic visit count");
        assert_eq!(a.input, b.input);
        assert_eq!(a.output, b.output);
        // Everything genned somewhere reaches the exit in a may-analysis.
        assert!(a.input[5].contains(1) && a.input[5].contains(3) && a.input[5].contains(4));
    }

    /// Unreachable blocks must not pollute a must-analysis through TOP.
    #[test]
    fn unreachable_gen_is_masked() {
        // 0 → 1 → 2(exit); 3 is disconnected and gens the fact.
        let g = graph(vec![vec![1], vec![2], vec![], vec![2]], 0, 2);
        let gen = vec![bits(1, &[]), bits(1, &[]), bits(1, &[]), bits(1, &[0])];
        let kill = vec![bits(1, &[]); 4];
        let must =
            solve(&g, &gen, &kill, 1, Direction::Forward, Meet::Intersect, &BitSet::empty(1));
        assert!(
            !must.input[2].contains(0),
            "a fact genned only in unreachable code must not hold at exit"
        );
    }

    #[test]
    fn backward_liveness_style() {
        // 0 → 1 → 2. A fact "used in 2" is live backward into 0 unless 1 kills it.
        let g = graph(vec![vec![1], vec![2], vec![]], 0, 2);
        let gen = vec![bits(1, &[]), bits(1, &[]), bits(1, &[0])];
        let kill = vec![bits(1, &[]); 3];
        let live = solve(&g, &gen, &kill, 1, Direction::Backward, Meet::Union, &BitSet::empty(1));
        assert!(live.input[0].contains(0));
        let kill2 = vec![bits(1, &[]), bits(1, &[0]), bits(1, &[])];
        let live2 = solve(&g, &gen, &kill2, 1, Direction::Backward, Meet::Union, &BitSet::empty(1));
        assert!(!live2.input[0].contains(0), "killed in the middle block");
    }

    #[test]
    fn compose_sequences_gen_kill() {
        // a: gen {0}, kill {}; b: gen {1}, kill {0} ⇒ net gen {1}, kill {0}.
        let mut g = bits(2, &[0]);
        let mut k = bits(2, &[]);
        compose(&mut g, &mut k, &bits(2, &[1]), &bits(2, &[0]));
        assert_eq!(g.iter_set().collect::<Vec<_>>(), vec![1]);
        assert_eq!(k.iter_set().collect::<Vec<_>>(), vec![0]);
        // then c: gen {0}, kill {1} ⇒ net gen {0}, kill {1}.
        compose(&mut g, &mut k, &bits(2, &[0]), &bits(2, &[1]));
        assert_eq!(g.iter_set().collect::<Vec<_>>(), vec![0]);
        assert_eq!(k.iter_set().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn boundary_seeds_the_start_node() {
        let g = graph(vec![vec![1], vec![]], 0, 1);
        let gen = vec![bits(1, &[]); 2];
        let kill = vec![bits(1, &[]); 2];
        let sol = solve(&g, &gen, &kill, 1, Direction::Forward, Meet::Intersect, &bits(1, &[0]));
        assert!(sol.input[0].contains(0) && sol.input[1].contains(0));
    }
}

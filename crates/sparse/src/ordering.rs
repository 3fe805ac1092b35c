//! Fill-reducing orderings: approximate minimum degree and reverse
//! Cuthill–McKee.
//!
//! [`amd`] is the ordering every OPM pencil factorization uses. RCM only
//! narrows the band, and the Gilbert–Peierls LU then fills the whole
//! envelope: on a 48×48 RC mesh (n = 2305) RCM leaves 151,955 entries in
//! `L + U`, minimum degree about half that, at a fraction of RCM's
//! symbolic and numeric factorization time. On ladders the two tie.
//! [`rcm`] stays for bandwidth-oriented uses ([`bandwidth`]) and the
//! reference time steppers. Orderings operate on the symmetrized pattern
//! `A + Aᵀ` so they are safe for the unsymmetric MNA matrices.

use crate::csr::CsrMatrix;
use crate::perm::Permutation;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Builds the adjacency lists of the symmetrized pattern `A + Aᵀ`,
/// excluding the diagonal.
fn symmetric_adjacency(a: &CsrMatrix) -> Vec<Vec<usize>> {
    assert_eq!(a.nrows(), a.ncols(), "ordering requires a square matrix");
    let n = a.nrows();
    let t = a.transpose();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for (j, _) in a.row(i) {
            if i != j {
                adj[i].push(j);
            }
        }
        for (j, _) in t.row(i) {
            if i != j {
                adj[i].push(j);
            }
        }
        adj[i].sort_unstable();
        adj[i].dedup();
    }
    adj
}

/// Finds a pseudo-peripheral node of the component containing `start`
/// (George–Liu double BFS heuristic).
fn pseudo_peripheral(adj: &[Vec<usize>], start: usize) -> usize {
    let n = adj.len();
    let mut node = start;
    let mut last_ecc = 0usize;
    let mut level = vec![usize::MAX; n];
    loop {
        // BFS from `node`.
        level.iter_mut().for_each(|l| *l = usize::MAX);
        level[node] = 0;
        let mut queue = std::collections::VecDeque::from([node]);
        let mut far = node;
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if level[v] == usize::MAX {
                    level[v] = level[u] + 1;
                    if level[v] > level[far]
                        || (level[v] == level[far] && adj[v].len() < adj[far].len())
                    {
                        far = v;
                    }
                    queue.push_back(v);
                }
            }
        }
        let ecc = level[far];
        if ecc <= last_ecc {
            return node;
        }
        last_ecc = ecc;
        node = far;
    }
}

/// Reverse Cuthill–McKee ordering of the symmetrized pattern of `a`.
///
/// Returns a [`Permutation`] `p` such that relabelling unknown `p.old_of(k)`
/// as `k` concentrates the pattern near the diagonal. Handles disconnected
/// graphs (each component seeded from a pseudo-peripheral node).
///
/// ```
/// use opm_sparse::{CooMatrix, ordering::rcm};
/// let mut c = CooMatrix::new(3, 3);
/// c.push(0, 2, 1.0); c.push(2, 0, 1.0);
/// for i in 0..3 { c.push(i, i, 1.0); }
/// let p = rcm(&c.to_csr());
/// assert_eq!(p.len(), 3);
/// ```
pub fn rcm(a: &CsrMatrix) -> Permutation {
    let adj = symmetric_adjacency(a);
    let n = adj.len();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);

    for seed in 0..n {
        if visited[seed] {
            continue;
        }
        let root = pseudo_peripheral(&adj, seed);
        // Cuthill–McKee BFS with neighbors sorted by ascending degree.
        visited[root] = true;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            let mut nbrs: Vec<usize> = adj[u].iter().copied().filter(|&v| !visited[v]).collect();
            nbrs.sort_unstable_by_key(|&v| adj[v].len());
            for v in nbrs {
                visited[v] = true;
                queue.push_back(v);
            }
        }
    }
    order.reverse();
    Permutation::from_vec(order).expect("RCM produces a valid permutation")
}

/// Approximate minimum-degree ordering of the symmetrized pattern of `a`
/// (Amestoy, Davis & Duff, 1996).
///
/// Each step eliminates a variable of least *approximate* external
/// degree. The work happens on the quotient graph rather than the
/// elimination graph, so the cost stays close to that of one symbolic
/// factorization where an exact minimum-degree scan is quadratic:
///
/// - **quotient graph** — an eliminated pivot becomes an *element* that
///   stands for the clique it would have created. The elements adjacent
///   to the pivot are absorbed into the new one, and any element whose
///   variables all lie in the new one is absorbed on the spot
///   (aggressive absorption);
/// - **approximate external degrees** — the bound
///   `min(n − k, d_old + |Lp \ i|, |A_i| + |Lp \ i| + Σ_e |Le \ Lp|)`,
///   with every `|Le \ Lp|` computed in one pass over the new element;
/// - **degree buckets** — one min-heap of indices per degree, so the
///   pivot is the lowest-index variable of least degree and the same
///   pattern always gives the same permutation;
/// - **supervariables** — variables of the new element with identical
///   quotient adjacency are found by hashing and merged, and a variable
///   left with no neighbour outside the new element is eliminated with
///   the pivot (mass elimination);
/// - **dense rows** — variables of degree above `max(16, 10·√n)` are
///   set aside up front and ordered last, in index order.
///
/// Returns a [`Permutation`] `p` that eliminates unknown `p.old_of(k)`
/// `k`-th.
///
/// ```
/// use opm_sparse::{CooMatrix, ordering::amd};
/// // Arrow matrix: unknown 0 couples to every other one. Eliminating it
/// // first would fill the whole matrix; AMD defers it until only one
/// // other unknown is left.
/// let n = 6;
/// let mut c = CooMatrix::new(n, n);
/// for i in 0..n {
///     c.push(i, i, 4.0);
///     if i > 0 {
///         c.push(0, i, 1.0);
///         c.push(i, 0, 1.0);
///     }
/// }
/// let p = amd(&c.to_csr());
/// assert_eq!(p.len(), n);
/// assert!(p.as_slice().iter().position(|&v| v == 0).unwrap() >= n - 2);
/// ```
pub fn amd(a: &CsrMatrix) -> Permutation {
    let order = Amd::new(symmetric_adjacency(a)).run();
    Permutation::from_vec(order).expect("AMD produces a valid permutation")
}

/// Role of a node of the quotient graph. Node `i` starts as a variable
/// and, once picked as pivot, becomes the element that pivot created.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Node {
    /// A principal (super)variable still to be eliminated.
    Var,
    /// An element: the clique left by an eliminated pivot.
    Elem,
    /// Out of the graph: a merged or mass-eliminated variable, an
    /// absorbed element, or a dense row.
    Gone,
}

const NONE: usize = usize::MAX;

/// Working state of one [`amd`] run. Neighbours that leave the graph are
/// pruned from adjacency lists lazily, the next time a list is scanned.
struct Amd {
    kind: Vec<Node>,
    /// Variable: adjacent variables. Element: its variables `Le`.
    vars: Vec<Vec<usize>>,
    /// Variable: adjacent elements.
    elems: Vec<Vec<usize>>,
    /// Supervariable weight: the unknowns a principal variable holds.
    nv: Vec<usize>,
    /// Variable: approximate external degree. Element: weight of `Le`.
    degree: Vec<usize>,
    /// Unknowns of a principal variable as a linked list in merge order
    /// (`next` links, `tail` ends the list headed by the variable).
    next: Vec<usize>,
    tail: Vec<usize>,
    /// `buckets[d]`: variables of degree `d`, lowest index on top. An
    /// entry whose variable's `bucket_of` has moved on is stale;
    /// `bucket_of[i] == d` guarantees a live entry for `i` in bucket `d`.
    buckets: Vec<BinaryHeap<Reverse<usize>>>,
    bucket_of: Vec<usize>,
    min_deg: usize,
    /// `|Le \ Lp|` per element, valid where `w_tag[e]` is the current tag.
    w: Vec<usize>,
    w_tag: Vec<usize>,
    /// Generation marks for set-membership tests.
    mark: Vec<usize>,
    tag: usize,
    /// Weight of the variables not yet eliminated.
    remaining: usize,
    /// Dense rows, ordered last.
    dense: Vec<usize>,
    /// `(hash, variable)` per surviving variable of the current `Lp`.
    hashed: Vec<(usize, usize)>,
}

impl Amd {
    fn new(mut adj: Vec<Vec<usize>>) -> Self {
        let n = adj.len();
        let threshold = ((10.0 * (n as f64).sqrt()) as usize).max(16);
        let dense: Vec<usize> = (0..n).filter(|&i| adj[i].len() > threshold).collect();
        let mut kind = vec![Node::Var; n];
        for &i in &dense {
            kind[i] = Node::Gone;
            adj[i].clear();
        }
        if !dense.is_empty() {
            for list in &mut adj {
                list.retain(|&j| kind[j] == Node::Var);
            }
        }
        let degree: Vec<usize> = adj.iter().map(Vec::len).collect();
        let mut amd = Amd {
            kind,
            vars: adj,
            elems: vec![Vec::new(); n],
            nv: vec![1; n],
            degree,
            next: vec![NONE; n],
            tail: (0..n).collect(),
            buckets: (0..=n).map(|_| BinaryHeap::new()).collect(),
            bucket_of: vec![NONE; n],
            min_deg: 0,
            w: vec![0; n],
            w_tag: vec![0; n],
            mark: vec![0; n],
            tag: 0,
            remaining: n - dense.len(),
            dense,
            hashed: Vec::new(),
        };
        for i in 0..n {
            if amd.kind[i] == Node::Var {
                amd.insert(i, amd.degree[i]);
            }
        }
        amd
    }

    /// Runs the elimination; returns the unknowns in elimination order.
    fn run(mut self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.kind.len());
        while self.remaining > 0 {
            let p = self.select();
            let (lp, lp_tag) = self.new_element(p);
            self.external_sizes(&lp);
            self.update_degrees(p, &lp, lp_tag);
            self.merge_supervariables();
            self.finalize(p, lp);
            let mut v = p;
            while v != NONE {
                order.push(v);
                v = self.next[v];
            }
        }
        order.append(&mut self.dense);
        order
    }

    fn next_tag(&mut self) -> usize {
        self.tag += 1;
        self.tag
    }

    fn insert(&mut self, i: usize, d: usize) {
        if self.bucket_of[i] != d {
            self.bucket_of[i] = d;
            self.buckets[d].push(Reverse(i));
        }
        self.min_deg = self.min_deg.min(d);
    }

    /// Takes variable `i` out of the graph (merged or mass-eliminated).
    fn remove(&mut self, i: usize) {
        self.kind[i] = Node::Gone;
        self.bucket_of[i] = NONE;
        self.elems[i] = Vec::new();
        self.vars[i] = Vec::new();
    }

    /// Pops the lowest-index variable of least approximate degree.
    fn select(&mut self) -> usize {
        loop {
            while let Some(Reverse(i)) = self.buckets[self.min_deg].pop() {
                if self.bucket_of[i] == self.min_deg {
                    self.bucket_of[i] = NONE;
                    return i;
                }
            }
            self.min_deg += 1;
        }
    }

    /// Appends `j`'s unknowns to principal variable `i`'s list.
    fn append_members(&mut self, i: usize, j: usize) {
        self.next[self.tail[i]] = j;
        self.tail[i] = self.tail[j];
    }

    /// Turns pivot `p` into an element: absorbs the elements adjacent to
    /// it and collects the new element's variables `Lp`. Returns `Lp`
    /// and the tag its members are marked with. They stay in their degree
    /// buckets: no pivot is selected before [`Amd::finalize`] moves them.
    fn new_element(&mut self, p: usize) -> (Vec<usize>, usize) {
        self.remaining -= self.nv[p];
        let tag = self.next_tag();
        self.mark[p] = tag;
        let mut lp = Vec::new();
        for e in std::mem::take(&mut self.elems[p]) {
            if self.kind[e] == Node::Elem {
                let le = std::mem::take(&mut self.vars[e]);
                self.collect(&le, tag, &mut lp);
                self.kind[e] = Node::Gone;
            }
        }
        let own = std::mem::take(&mut self.vars[p]);
        self.collect(&own, tag, &mut lp);
        self.kind[p] = Node::Elem;
        (lp, tag)
    }

    fn collect(&mut self, from: &[usize], tag: usize, lp: &mut Vec<usize>) {
        for &j in from {
            if self.kind[j] == Node::Var && self.mark[j] != tag {
                self.mark[j] = tag;
                lp.push(j);
            }
        }
    }

    /// Computes `w[e] = |Le \ Lp|` (by weight) for every element adjacent
    /// to a variable of `Lp`.
    fn external_sizes(&mut self, lp: &[usize]) {
        let tag = self.next_tag();
        for &i in lp {
            let nvi = self.nv[i];
            for &e in &self.elems[i] {
                if self.kind[e] != Node::Elem {
                    continue;
                }
                if self.w_tag[e] == tag {
                    self.w[e] -= nvi;
                } else {
                    self.w_tag[e] = tag;
                    self.w[e] = self.degree[e] - nvi;
                }
            }
        }
    }

    /// For every variable of `Lp`: prunes its adjacency (absorbing
    /// elements inside `Lp`), bounds its degree by the part outside the
    /// new element, and either mass-eliminates it with `p` or adds `p`
    /// to its elements. Records `(hash, variable)` for the survivors.
    fn update_degrees(&mut self, p: usize, lp: &[usize], lp_tag: usize) {
        self.hashed.clear();
        for &i in lp {
            let mut deg = 0usize;
            let mut hash = 0usize;
            let mut es = std::mem::take(&mut self.elems[i]);
            let mut kept = 0;
            for k in 0..es.len() {
                let e = es[k];
                if self.kind[e] != Node::Elem {
                    continue;
                }
                if self.w[e] == 0 {
                    // Le ⊆ Lp: aggressive absorption.
                    self.kind[e] = Node::Gone;
                    self.vars[e] = Vec::new();
                    continue;
                }
                deg += self.w[e];
                hash = hash.wrapping_add(e);
                es[kept] = e;
                kept += 1;
            }
            es.truncate(kept);
            let mut vs = std::mem::take(&mut self.vars[i]);
            vs.retain(|&j| {
                // Neighbours inside Lp are now reached through `p`.
                let keep = self.kind[j] == Node::Var && self.mark[j] != lp_tag;
                if keep {
                    deg += self.nv[j];
                    hash = hash.wrapping_add(j);
                }
                keep
            });
            if es.is_empty() && vs.is_empty() {
                // Mass elimination: only the new element is left.
                self.remove(i);
                self.remaining -= self.nv[i];
                self.append_members(p, i);
            } else {
                self.degree[i] = self.degree[i].min(deg);
                es.push(p);
                self.elems[i] = es;
                self.vars[i] = vs;
                self.hashed.push((hash, i));
            }
        }
    }

    /// Merges indistinguishable variables (same pruned elements and
    /// variables) into the lowest-index one of each hash group.
    fn merge_supervariables(&mut self) {
        let mut hashed = std::mem::take(&mut self.hashed);
        hashed.sort_unstable();
        for group in hashed.chunk_by(|a, b| a.0 == b.0) {
            for (a, &(_, i)) in group.iter().enumerate() {
                if self.kind[i] != Node::Var || a + 1 == group.len() {
                    continue;
                }
                let tag = self.next_tag();
                for &x in self.elems[i].iter().chain(&self.vars[i]) {
                    self.mark[x] = tag;
                }
                for &(_, j) in &group[a + 1..] {
                    let same = self.kind[j] == Node::Var
                        && self.elems[j].len() == self.elems[i].len()
                        && self.vars[j].len() == self.vars[i].len()
                        && self.elems[j]
                            .iter()
                            .chain(&self.vars[j])
                            .all(|&x| self.mark[x] == tag);
                    if same {
                        self.nv[i] += self.nv[j];
                        self.remove(j);
                        self.append_members(i, j);
                    }
                }
            }
        }
        self.hashed = hashed;
    }

    /// Finishes the approximate degrees of `Lp`, returns its variables to
    /// the buckets, and records `Lp` as element `p`'s variable list.
    fn finalize(&mut self, p: usize, mut lp: Vec<usize>) {
        lp.retain(|&i| self.kind[i] == Node::Var);
        let weight: usize = lp.iter().map(|&i| self.nv[i]).sum();
        for &i in &lp {
            let nvi = self.nv[i];
            let d = (self.degree[i] + weight - nvi).min(self.remaining - nvi);
            self.degree[i] = d;
            self.insert(i, d);
        }
        self.degree[p] = weight;
        if lp.is_empty() {
            self.kind[p] = Node::Gone;
        }
        self.vars[p] = lp;
    }
}

/// Bandwidth of the pattern of `a` under permutation `p` — the quality
/// metric RCM optimizes for.
pub fn bandwidth(a: &CsrMatrix, p: &Permutation) -> usize {
    let inv = p.inverse();
    let mut bw = 0usize;
    for i in 0..a.nrows() {
        let pi = inv.old_of(i);
        for (j, _) in a.row(i) {
            let pj = inv.old_of(j);
            bw = bw.max(pi.abs_diff(pj));
        }
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    /// 1-D chain graph labelled badly (even nodes first, then odd).
    fn scrambled_chain(n: usize) -> CsrMatrix {
        // Chain in "true" order is 0-1-2-...; we label true node t as
        // (t/2) if even else (n+1)/2 + t/2 to scramble locality.
        let label = |t: usize| {
            if t % 2 == 0 {
                t / 2
            } else {
                n.div_ceil(2) + t / 2
            }
        };
        let mut c = CooMatrix::new(n, n);
        for t in 0..n {
            c.push(label(t), label(t), 4.0);
            if t + 1 < n {
                c.push(label(t), label(t + 1), -1.0);
                c.push(label(t + 1), label(t), -1.0);
            }
        }
        c.to_csr()
    }

    #[test]
    fn rcm_restores_chain_bandwidth() {
        let a = scrambled_chain(40);
        let ident = Permutation::identity(40);
        let before = bandwidth(&a, &ident);
        let after = bandwidth(&a, &rcm(&a));
        assert!(before > 10, "scramble should start wide, got {before}");
        assert_eq!(after, 1, "a chain reorders to bandwidth 1");
    }

    /// Star on `n` nodes with the hub labelled `hub`.
    fn star(n: usize, hub: usize) -> CsrMatrix {
        let mut c = CooMatrix::new(n, n);
        for i in 0..n {
            c.push(i, i, n as f64);
            if i != hub {
                c.push(hub, i, 1.0);
                c.push(i, hub, 1.0);
            }
        }
        c.to_csr()
    }

    fn position(p: &Permutation, v: usize) -> usize {
        p.as_slice().iter().position(|&x| x == v).unwrap()
    }

    /// nnz(L+U) of the LU factors under ordering `p`.
    fn lu_nnz(a: &CsrMatrix, p: &Permutation) -> usize {
        crate::lu::SparseLu::factor(&a.to_csc(), Some(p))
            .unwrap()
            .nnz()
    }

    #[test]
    fn amd_orders_star_hub_last() {
        // Leaves (degree 1) go first, the hub (degree n − 1) only once a
        // single leaf is left. That last pair ties at degree 1 and the
        // lower index wins, so a hub labelled above every leaf is last
        // and any other hub is last but one; either way there is no fill.
        let n = 8;
        for hub in [0, n / 2, n - 1] {
            let a = star(n, hub);
            let p = amd(&a);
            let want = if hub == n - 1 { n - 1 } else { n - 2 };
            assert_eq!(position(&p, hub), want, "hub {hub}: {:?}", p.as_slice());
            assert_eq!(lu_nnz(&a, &p), a.nnz(), "hub {hub} ordered with fill");
        }
    }

    #[test]
    fn amd_gives_a_scrambled_chain_zero_fill() {
        let a = scrambled_chain(40);
        let p = amd(&a);
        assert_eq!(lu_nnz(&a, &p), a.nnz(), "a chain eliminates without fill");
    }

    #[test]
    fn orderings_are_valid_permutations_on_degenerate_patterns() {
        // Two components plus an isolated unknown with no stored entry.
        let mut c = CooMatrix::new(7, 7);
        for i in 0..6 {
            c.push(i, i, 1.0);
        }
        c.push(0, 1, 1.0);
        c.push(1, 0, 1.0);
        c.push(4, 5, 1.0);
        c.push(5, 4, 1.0);
        let a = c.to_csr();
        assert_eq!(rcm(&a).len(), 7);
        assert_eq!(amd(&a).len(), 7);

        let empty = CooMatrix::new(0, 0).to_csr();
        assert!(amd(&empty).is_empty());
        assert!(rcm(&empty).is_empty());

        let mut one = CooMatrix::new(1, 1);
        one.push(0, 0, 2.0);
        assert_eq!(amd(&one.to_csr()).as_slice(), &[0]);
    }

    #[test]
    fn amd_postpones_dense_rows() {
        // A path 1–2–…–(n−1) plus unknown 0 coupled to all of them: with
        // n = 400 its degree 399 exceeds max(16, 10·√n) = 200. Without
        // postponement it would tie with the last path node and win on
        // index, landing last but one.
        let n = 400;
        let mut c = CooMatrix::new(n, n);
        let mut path = CooMatrix::new(n - 1, n - 1);
        for i in 0..n {
            c.push(i, i, 4.0);
            if i > 0 {
                c.push(0, i, 1.0);
                c.push(i, 0, 1.0);
                path.push(i - 1, i - 1, 4.0);
            }
            if i > 1 {
                c.push(i - 1, i, 1.0);
                c.push(i, i - 1, 1.0);
                path.push(i - 2, i - 1, 1.0);
                path.push(i - 1, i - 2, 1.0);
            }
        }
        let p = amd(&c.to_csr());
        assert_eq!(p.old_of(n - 1), 0, "dense row not ordered last");
        // The rest is ordered exactly as if the dense row were absent.
        let rest: Vec<usize> = p.as_slice()[..n - 1].iter().map(|&v| v - 1).collect();
        assert_eq!(rest, amd(&path.to_csr()).as_slice());
    }

    #[test]
    fn amd_is_deterministic() {
        // A scrambled 12×12 grid: many degree ties at every step.
        let k = 12;
        let n = k * k;
        let label = |v: usize| (v * 37 + 11) % n;
        let mut c = CooMatrix::new(n, n);
        for r in 0..k {
            for s in 0..k {
                let v = label(r * k + s);
                c.push(v, v, 4.0);
                if s + 1 < k {
                    let w = label(r * k + s + 1);
                    c.push(v, w, -1.0);
                    c.push(w, v, -1.0);
                }
                if r + 1 < k {
                    let w = label((r + 1) * k + s);
                    c.push(v, w, -1.0);
                    c.push(w, v, -1.0);
                }
            }
        }
        let a = c.to_csr();
        let first = amd(&a);
        assert_eq!(first, amd(&a));
        assert!(lu_nnz(&a, &first) < lu_nnz(&a, &rcm(&a)));
    }

    #[test]
    fn rcm_handles_unsymmetric_patterns() {
        let mut c = CooMatrix::new(3, 3);
        for i in 0..3 {
            c.push(i, i, 1.0);
        }
        c.push(0, 2, 1.0); // only upper entry; symmetrization must catch it
        let p = rcm(&c.to_csr());
        assert_eq!(p.len(), 3);
    }
}

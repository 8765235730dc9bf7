//! Compressed sparse row (CSR) adjacency storage.
//!
//! City road networks are almost planar (|E| ≈ |V|), so adjacency is stored
//! in two flat CSR arrays — one for outgoing edges, one (reversed) for
//! incoming edges — giving cache-friendly scans in Dijkstra and O(1) degree
//! queries. All hot loops in the workspace run over these arrays.

use crate::NodeId;

/// One direction of adjacency in CSR form.
///
/// For node `v`, its neighbors live at `targets[offsets[v] .. offsets[v+1]]`
/// with parallel `weights`.
#[derive(Clone, Debug)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
}

impl Csr {
    /// Builds a CSR from an edge list over `n_nodes` vertices.
    ///
    /// If `reverse` is true the edges are transposed first (producing an
    /// in-edge adjacency). Uses a counting sort, O(|V| + |E|).
    pub(crate) fn from_edges(n_nodes: usize, edges: &[(u32, u32, f64)], reverse: bool) -> Csr {
        let mut offsets = vec![0u32; n_nodes + 1];
        for &(from, to, _) in edges {
            let src = if reverse { to } else { from };
            offsets[src as usize + 1] += 1;
        }
        for i in 0..n_nodes {
            offsets[i + 1] += offsets[i];
        }
        let m = edges.len();
        let mut targets = vec![0u32; m];
        let mut weights = vec![0f64; m];
        let mut cursor = offsets.clone();
        for &(from, to, w) in edges {
            let (src, dst) = if reverse { (to, from) } else { (from, to) };
            let slot = cursor[src as usize] as usize;
            targets[slot] = dst;
            weights[slot] = w;
            cursor[src as usize] += 1;
        }
        Csr {
            offsets,
            targets,
            weights,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored (directed) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v` in this direction.
    #[inline]
    pub(crate) fn degree(&self, v: NodeId) -> usize {
        let i = v.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Iterates over `(neighbor, weight)` pairs of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let i = v.index();
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        self.targets[lo..hi]
            .iter()
            .zip(&self.weights[lo..hi])
            .map(|(&t, &w)| (NodeId(t), w))
    }

    /// Looks up the weight of the edge `from -> to`, if present. When
    /// parallel edges exist, returns the smallest weight.
    pub fn edge_weight(&self, from: NodeId, to: NodeId) -> Option<f64> {
        self.neighbors(from)
            .filter(|&(t, _)| t == to)
            .map(|(_, w)| w)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_size_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.targets.capacity() * std::mem::size_of::<u32>()
            + self.weights.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_edges() -> Vec<(u32, u32, f64)> {
        vec![(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0), (2, 0, 4.0)]
    }

    #[test]
    fn forward_adjacency() {
        let csr = Csr::from_edges(3, &sample_edges(), false);
        assert_eq!(csr.node_count(), 3);
        assert_eq!(csr.edge_count(), 4);
        assert_eq!(csr.degree(NodeId(0)), 2);
        assert_eq!(csr.degree(NodeId(1)), 1);
        assert_eq!(csr.degree(NodeId(2)), 1);
        let mut n0: Vec<_> = csr.neighbors(NodeId(0)).collect();
        n0.sort_by_key(|&(n, _)| n);
        assert_eq!(n0, vec![(NodeId(1), 1.0), (NodeId(2), 2.0)]);
    }

    #[test]
    fn reverse_adjacency_transposes() {
        let csr = Csr::from_edges(3, &sample_edges(), true);
        // In-edges of node 2 are 0->2 (w=2) and 1->2 (w=3).
        let mut n2: Vec<_> = csr.neighbors(NodeId(2)).collect();
        n2.sort_by_key(|&(n, _)| n);
        assert_eq!(n2, vec![(NodeId(0), 2.0), (NodeId(1), 3.0)]);
        assert_eq!(csr.degree(NodeId(0)), 1); // only 2->0
    }

    #[test]
    fn edge_weight_lookup() {
        let csr = Csr::from_edges(3, &sample_edges(), false);
        assert_eq!(csr.edge_weight(NodeId(0), NodeId(2)), Some(2.0));
        assert_eq!(csr.edge_weight(NodeId(2), NodeId(1)), None);
    }

    #[test]
    fn parallel_edges_take_min_weight() {
        let edges = vec![(0, 1, 5.0), (0, 1, 2.0)];
        let csr = Csr::from_edges(2, &edges, false);
        assert_eq!(csr.edge_weight(NodeId(0), NodeId(1)), Some(2.0));
        assert_eq!(csr.degree(NodeId(0)), 2);
    }

    #[test]
    fn isolated_nodes_have_zero_degree() {
        let csr = Csr::from_edges(5, &[(0, 1, 1.0)], false);
        for v in 2..5 {
            assert_eq!(csr.degree(NodeId(v)), 0);
            assert_eq!(csr.neighbors(NodeId(v)).count(), 0);
        }
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::from_edges(0, &[], false);
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);
    }
}

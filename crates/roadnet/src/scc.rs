//! Strongly connected components (iterative Tarjan).
//!
//! Synthetic and map-extracted road networks can contain dead-end one-way
//! stubs from which a round trip is impossible. The data generator uses this
//! module to verify (and the tests to assert) strong connectivity, which
//! keeps round-trip distances total on the main component.

use crate::graph::RoadNetwork;
use crate::NodeId;

/// The strongly-connected-component decomposition of a network.
#[derive(Clone, Debug)]
pub struct SccDecomposition {
    /// Component id per node (dense, `0..component_count`).
    comp: Vec<u32>,
    /// Number of components.
    count: usize,
}

impl SccDecomposition {
    /// Number of strongly connected components.
    pub(crate) fn component_count(&self) -> usize {
        self.count
    }

    /// Nodes of the largest component (ties broken by smallest component id).
    pub fn largest_component(&self) -> Vec<NodeId> {
        let mut sizes = vec![0usize; self.count];
        for &c in &self.comp {
            sizes[c as usize] += 1;
        }
        let best = sizes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(&a.0)))
            .map(|(i, _)| i as u32)
            .unwrap_or(0);
        self.comp
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == best)
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }
}

/// Computes the SCC decomposition of `net` with an iterative Tarjan
/// algorithm (explicit stack; safe on 10⁵-node-deep graphs).
pub fn strongly_connected_components(net: &RoadNetwork) -> SccDecomposition {
    let n = net.node_count();
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![0u32; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut comp_count = 0u32;

    // Explicit DFS frames: (node, edge iterator position).
    let mut frames: Vec<(u32, usize)> = Vec::new();
    // Materialized out-neighbor list per frame would cost memory; instead we
    // re-enumerate via nth(). Out-degrees are tiny (planar), so this is fine.
    for start in 0..n as u32 {
        if index[start as usize] != UNVISITED {
            continue;
        }
        frames.push((start, 0));
        index[start as usize] = next_index;
        lowlink[start as usize] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start as usize] = true;

        while let Some(&mut (v, ref mut ei)) = frames.last_mut() {
            let next_edge = net.out_edges(NodeId(v)).nth(*ei);
            match next_edge {
                Some((w, _)) => {
                    *ei += 1;
                    let wi = w.index();
                    if index[wi] == UNVISITED {
                        index[wi] = next_index;
                        lowlink[wi] = next_index;
                        next_index += 1;
                        stack.push(w.0);
                        on_stack[wi] = true;
                        frames.push((w.0, 0));
                    } else if on_stack[wi] {
                        lowlink[v as usize] = lowlink[v as usize].min(index[wi]);
                    }
                }
                None => {
                    frames.pop();
                    if let Some(&mut (parent, _)) = frames.last_mut() {
                        lowlink[parent as usize] =
                            lowlink[parent as usize].min(lowlink[v as usize]);
                    }
                    if lowlink[v as usize] == index[v as usize] {
                        // v is a root; pop its component.
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w as usize] = false;
                            comp[w as usize] = comp_count;
                            if w == v {
                                break;
                            }
                        }
                        comp_count += 1;
                    }
                }
            }
        }
    }

    SccDecomposition {
        comp,
        count: comp_count as usize,
    }
}

/// True if every node can reach every other node.
pub fn is_strongly_connected(net: &RoadNetwork) -> bool {
    net.node_count() > 0 && strongly_connected_components(net).component_count() == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::graph::RoadNetworkBuilder;

    fn net_from_edges(n: u32, edges: &[(u32, u32)]) -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..n {
            b.add_node(Point::new(i as f64, 0.0));
        }
        for &(u, v) in edges {
            b.add_edge(NodeId(u), NodeId(v), 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn ring_is_one_scc() {
        let net = net_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert!(is_strongly_connected(&net));
        let scc = strongly_connected_components(&net);
        assert_eq!(scc.component_count(), 1);
        assert_eq!(scc.largest_component().len(), 5);
    }

    #[test]
    fn chain_is_all_singletons() {
        let net = net_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(!is_strongly_connected(&net));
        let scc = strongly_connected_components(&net);
        assert_eq!(scc.component_count(), 4);
    }

    #[test]
    fn two_cycles_with_bridge() {
        // Cycle {0,1,2} -> bridge -> cycle {3,4}.
        let net = net_from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3)]);
        let scc = strongly_connected_components(&net);
        assert_eq!(scc.component_count(), 2);
        // Two components, so {3, 4} is the other one.
        assert_eq!(
            scc.largest_component(),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn isolated_nodes_are_components() {
        let net = net_from_edges(3, &[(0, 1), (1, 0)]);
        let scc = strongly_connected_components(&net);
        assert_eq!(scc.component_count(), 2);
        assert_eq!(scc.largest_component().len(), 2);
    }

    #[test]
    fn deep_cycle_does_not_overflow_stack() {
        // 50k-node directed ring: recursion would overflow, iteration must not.
        let n = 50_000u32;
        let mut b = RoadNetworkBuilder::new();
        for i in 0..n {
            b.add_node(Point::new(i as f64, 0.0));
        }
        for i in 0..n {
            b.add_edge(NodeId(i), NodeId((i + 1) % n), 1.0).unwrap();
        }
        let net = b.build().unwrap();
        assert!(is_strongly_connected(&net));
    }
}

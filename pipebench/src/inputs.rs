//! Seeded inputs: graph text from the seed-pinned `gfd-datagen` scenarios,
//! loaded back through the `gfd_graph::io` streaming parser, plus the hash
//! used to fingerprint every input stream.

use std::sync::Arc;

use gfd_graph::io::{sizing_pass, ChunkedParser, ParseError};
use gfd_graph::{Graph, GraphBuilder, NodeId};

/// The seed whose input fingerprints and mined rule set are recorded in
/// [`crate::expected`]. It leaves the generated graphs untouched, so its
/// inputs are exactly the `small` / `tiny` / `large` scenarios.
pub const DEFAULT_SEED: u64 = 0;

/// splitmix64: a small, fixed generator, so a seed names the same inputs
/// regardless of any other crate's random-number code.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// 64-bit FNV-1a, folded incrementally.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) -> &mut Fnv {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Fnv {
        self.bytes(&v.to_le_bytes())
    }

    pub fn of(b: &[u8]) -> u64 {
        Fnv::default().bytes(b).0
    }
}

/// The scenario graph as text. Any seed but [`DEFAULT_SEED`] renumbers the
/// nodes by a seeded permutation and shuffles the edge order: the graph is
/// isomorphic to the scenario, so the pipeline does the same work on a
/// different byte stream.
pub fn graph_text(g: &Graph, seed: u64) -> String {
    if seed == DEFAULT_SEED {
        return gfd_graph::io::to_text(g);
    }
    let n = g.node_count();
    let mut rng = Rng::new(seed, 1);
    // order[new] = old
    let mut order: Vec<NodeId> = g.nodes().collect();
    rng.shuffle(&mut order);
    let mut new_id = vec![NodeId(0); n];
    for (new, &old) in order.iter().enumerate() {
        new_id[old.index()] = NodeId::from_index(new);
    }
    let mut b = GraphBuilder::with_interner(Arc::clone(g.interner()));
    for &old in &order {
        let v = b.add_node_by_id(g.node_label(old));
        for &(a, val) in g.attrs(old) {
            b.set_attr_by_id(v, a, val);
        }
    }
    let mut edges = g.edges().to_vec();
    rng.shuffle(&mut edges);
    for e in edges {
        b.add_edge_by_id(new_id[e.src.index()], new_id[e.dst.index()], e.label);
    }
    gfd_graph::io::to_text(&b.build())
}

/// Bytes fed to the streaming parser per call, as `io::load_streamed` does.
const CHUNK_BYTES: usize = 64 * 1024;

/// Loads graph text through the `gfd_graph::io` loader path: a sizing pass
/// that pre-reserves the builder, then fixed-size chunks through a
/// [`ChunkedParser`].
pub fn load_text(text: &str) -> Result<Graph, String> {
    let sizing = sizing_pass(text.as_bytes()).map_err(|e| e.to_string())?;
    let mut p = ChunkedParser::with_capacity(sizing.nodes, sizing.edges, sizing.attrs);
    let mut rest = text;
    while !rest.is_empty() {
        let mut cut = rest.len().min(CHUNK_BYTES);
        while !rest.is_char_boundary(cut) {
            cut -= 1;
        }
        let (chunk, tail) = rest.split_at(cut);
        p.feed(chunk).map_err(|e: ParseError| e.to_string())?;
        rest = tail;
    }
    p.finish().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let mut b = GraphBuilder::new();
        let x = b.add_node("person");
        let y = b.add_node("city");
        let z = b.add_node("person");
        b.set_attr(x, "name", "ann");
        b.set_attr(z, "name", "bo");
        b.add_edge(x, y, "lives");
        b.add_edge(z, y, "lives");
        b.add_edge(x, z, "knows");
        b.build()
    }

    #[test]
    fn default_seed_is_the_scenario_text_and_loads_back() {
        let g = sample();
        let text = graph_text(&g, DEFAULT_SEED);
        assert_eq!(text, gfd_graph::io::to_text(&g));
        let back = load_text(&text).expect("loads");
        assert_eq!(gfd_graph::io::to_text(&back), text);
    }

    #[test]
    fn other_seeds_give_an_isomorphic_graph_deterministically() {
        let g = sample();
        let a = graph_text(&g, 7);
        assert_eq!(a, graph_text(&g, 7));
        let h = load_text(&a).expect("loads");
        assert_eq!(h.node_count(), g.node_count());
        assert_eq!(h.edge_count(), g.edge_count());
        let mut labels: Vec<String> = h
            .edges()
            .iter()
            .map(|e| {
                let i = h.interner();
                format!(
                    "{} {} {}",
                    i.label_name(h.node_label(e.src)),
                    i.label_name(e.label),
                    i.label_name(h.node_label(e.dst))
                )
            })
            .collect();
        labels.sort();
        assert_eq!(
            labels,
            [
                "person knows person",
                "person lives city",
                "person lives city"
            ]
        );
    }

    #[test]
    fn malformed_text_is_an_error() {
        assert!(load_text("n person\ne 0 5 knows\n").is_err());
    }

    #[test]
    fn rng_and_hash_are_fixed() {
        let mut r = Rng::new(1, 2);
        let first = r.next_u64();
        assert_eq!(Rng::new(1, 2).next_u64(), first);
        assert_ne!(Rng::new(1, 3).next_u64(), first);
        assert_eq!(Fnv::of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::of(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}

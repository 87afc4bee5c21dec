//! An R-tree spatial index with Sort-Tile-Recursive bulk loading.
//!
//! Mask rule checking builds an R-tree over every edge of every mask shape
//! and answers probe queries ("does this spacing probe segment touch another
//! shape?") against it, exactly as §III-F of the paper describes. The bulk
//! loader follows Leutenegger et al., *STR: A Simple and Efficient Algorithm
//! for R-Tree Packing* (ICDE'97); incremental [`RTree::insert`] uses
//! Guttman's least-enlargement descent with linear split.

use crate::BBox;

/// Maximum number of entries per node.
const NODE_CAPACITY: usize = 16;
/// Minimum fill after a split.
const NODE_MIN: usize = NODE_CAPACITY / 4;

#[derive(Clone, Debug)]
enum NodeKind {
    /// Child node indices.
    Inner(Vec<usize>),
    /// Item indices.
    Leaf(Vec<usize>),
}

#[derive(Clone, Debug)]
struct Node {
    bbox: BBox,
    kind: NodeKind,
}

/// A spatial index over items of type `T`, each keyed by a bounding box.
///
/// ```
/// use cardopc_geometry::{BBox, Point, RTree};
///
/// let boxes = (0..100).map(|i| {
///     let x = (i % 10) as f64 * 10.0;
///     let y = (i / 10) as f64 * 10.0;
///     (BBox::new(Point::new(x, y), Point::new(x + 5.0, y + 5.0)), i)
/// });
/// let tree: RTree<i32> = boxes.collect();
///
/// let query = BBox::new(Point::new(0.0, 0.0), Point::new(12.0, 12.0));
/// let mut hits: Vec<i32> = tree.query(&query).copied().collect();
/// hits.sort();
/// assert_eq!(hits, vec![0, 1, 10, 11]);
/// ```
#[derive(Clone, Debug)]
pub struct RTree<T> {
    items: Vec<(BBox, T)>,
    nodes: Vec<Node>,
    root: Option<usize>,
}

impl<T> Default for RTree<T> {
    fn default() -> Self {
        RTree::new()
    }
}

impl<T> RTree<T> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        RTree {
            items: Vec::new(),
            nodes: Vec::new(),
            root: None,
        }
    }

    /// Bulk loads the tree with Sort-Tile-Recursive packing.
    ///
    /// This is the preferred constructor: packing yields near-minimal
    /// overlap between sibling nodes and `O(n log n)` build time.
    pub fn bulk_load(items: Vec<(BBox, T)>) -> Self {
        let mut tree = RTree {
            items,
            nodes: Vec::new(),
            root: None,
        };
        if tree.items.is_empty() {
            return tree;
        }

        // Pack item indices into leaves.
        let idx: Vec<usize> = (0..tree.items.len()).collect();
        let leaf_groups = str_pack(&idx, |&i| tree.items[i].0.center());
        let mut level: Vec<usize> = leaf_groups
            .into_iter()
            .map(|group| {
                let bbox = group
                    .iter()
                    .fold(BBox::EMPTY, |b, &i| b.union(tree.items[i].0));
                tree.push_node(Node {
                    bbox,
                    kind: NodeKind::Leaf(group),
                })
            })
            .collect();

        // Pack nodes upward until a single root remains.
        while level.len() > 1 {
            let groups = str_pack(&level, |&n| tree.nodes[n].bbox.center());
            level = groups
                .into_iter()
                .map(|group| {
                    let bbox = group
                        .iter()
                        .fold(BBox::EMPTY, |b, &n| b.union(tree.nodes[n].bbox));
                    tree.push_node(Node {
                        bbox,
                        kind: NodeKind::Inner(group),
                    })
                })
                .collect();
        }
        tree.root = Some(level[0]);
        tree
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when no items are indexed.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Bounding box of everything in the tree ([`BBox::EMPTY`] when empty).
    pub fn bbox(&self) -> BBox {
        self.root.map_or(BBox::EMPTY, |r| self.nodes[r].bbox)
    }

    /// The item with index `id` as returned by [`RTree::query_indices`].
    pub fn item(&self, id: usize) -> &(BBox, T) {
        &self.items[id]
    }

    /// Inserts a single item.
    ///
    /// Uses least-enlargement descent and linear split on overflow. Prefer
    /// [`RTree::bulk_load`] when all items are known up front.
    pub fn insert(&mut self, bbox: BBox, value: T) {
        let item_id = self.items.len();
        self.items.push((bbox, value));

        let Some(root) = self.root else {
            let leaf = self.push_node(Node {
                bbox,
                kind: NodeKind::Leaf(vec![item_id]),
            });
            self.root = Some(leaf);
            return;
        };

        if let Some((left, right)) = self.insert_rec(root, item_id, bbox) {
            // Root split: grow the tree by one level.
            let new_root_bbox = self.nodes[left].bbox.union(self.nodes[right].bbox);
            let new_root = self.push_node(Node {
                bbox: new_root_bbox,
                kind: NodeKind::Inner(vec![left, right]),
            });
            self.root = Some(new_root);
        }
    }

    /// Items whose bounding boxes intersect `query`.
    pub fn query<'a>(&'a self, query: &BBox) -> impl Iterator<Item = &'a T> + 'a {
        self.query_indices(query)
            .into_iter()
            .map(move |i| &self.items[i].1)
    }

    /// Indices (into insertion/bulk-load order) of items whose bounding
    /// boxes intersect `query`.
    pub fn query_indices(&self, query: &BBox) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_in(query, &mut Vec::new(), |i| out.push(i));
        out
    }

    /// Calls `visit` with the index of every item whose bounding box
    /// intersects `query`, in [`RTree::query_indices`] order.
    ///
    /// `stack` is traversal scratch owned by the caller (its contents on
    /// entry are discarded), so a probe loop issuing one query per
    /// boundary sample allocates nothing per query. A visitor that walks
    /// another tree needs a second stack for it.
    pub fn for_each_in(&self, query: &BBox, stack: &mut Vec<usize>, mut visit: impl FnMut(usize)) {
        stack.clear();
        stack.extend(self.root);
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n];
            if !node.bbox.intersects(query) {
                continue;
            }
            match &node.kind {
                NodeKind::Inner(children) => stack.extend_from_slice(children),
                NodeKind::Leaf(entries) => {
                    for &i in entries {
                        if self.items[i].0.intersects(query) {
                            visit(i);
                        }
                    }
                }
            }
        }
    }

    fn push_node(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Recursive insert; returns `Some((left, right))` when node `n` split.
    fn insert_rec(&mut self, n: usize, item_id: usize, bbox: BBox) -> Option<(usize, usize)> {
        self.nodes[n].bbox = self.nodes[n].bbox.union(bbox);
        match &self.nodes[n].kind {
            NodeKind::Leaf(_) => {
                if let NodeKind::Leaf(entries) = &mut self.nodes[n].kind {
                    entries.push(item_id);
                }
                if self.leaf_len(n) > NODE_CAPACITY {
                    Some(self.split_node(n))
                } else {
                    None
                }
            }
            NodeKind::Inner(children) => {
                // Least-enlargement child choice.
                let mut best = children[0];
                let mut best_growth = f64::INFINITY;
                let mut best_area = f64::INFINITY;
                for &c in children {
                    let b = self.nodes[c].bbox;
                    let growth = b.union(bbox).area() - b.area();
                    if growth < best_growth || (growth == best_growth && b.area() < best_area) {
                        best = c;
                        best_growth = growth;
                        best_area = b.area();
                    }
                }
                if let Some((left, right)) = self.insert_rec(best, item_id, bbox) {
                    if let NodeKind::Inner(children) = &mut self.nodes[n].kind {
                        children.retain(|&c| c != best);
                        children.push(left);
                        children.push(right);
                        if children.len() > NODE_CAPACITY {
                            return Some(self.split_node(n));
                        }
                    }
                }
                None
            }
        }
    }

    fn leaf_len(&self, n: usize) -> usize {
        match &self.nodes[n].kind {
            NodeKind::Leaf(e) => e.len(),
            NodeKind::Inner(c) => c.len(),
        }
    }

    fn entry_bbox(&self, n: usize, entry: usize) -> BBox {
        match &self.nodes[n].kind {
            NodeKind::Leaf(_) => self.items[entry].0,
            NodeKind::Inner(_) => self.nodes[entry].bbox,
        }
    }

    /// Linear split (Guttman) of an overflowing node; returns the two new
    /// node indices. Node `n` is reused as the left half.
    fn split_node(&mut self, n: usize) -> (usize, usize) {
        let entries: Vec<usize> = match &self.nodes[n].kind {
            NodeKind::Leaf(e) => e.clone(),
            NodeKind::Inner(c) => c.clone(),
        };
        let is_leaf = matches!(self.nodes[n].kind, NodeKind::Leaf(_));
        let boxes: Vec<BBox> = entries.iter().map(|&e| self.entry_bbox(n, e)).collect();

        // Pick the pair of seeds with the greatest normalized separation.
        let (seed_a, seed_b) = linear_pick_seeds(&boxes);

        let mut left_entries = vec![entries[seed_a]];
        let mut right_entries = vec![entries[seed_b]];
        let mut left_bbox = boxes[seed_a];
        let mut right_bbox = boxes[seed_b];

        for (i, &e) in entries.iter().enumerate() {
            if i == seed_a || i == seed_b {
                continue;
            }
            let remaining = entries.len() - i;
            // Force assignment to satisfy the minimum fill.
            if left_entries.len() + remaining <= NODE_MIN {
                left_entries.push(e);
                left_bbox = left_bbox.union(boxes[i]);
                continue;
            }
            if right_entries.len() + remaining <= NODE_MIN {
                right_entries.push(e);
                right_bbox = right_bbox.union(boxes[i]);
                continue;
            }
            let lg = left_bbox.union(boxes[i]).area() - left_bbox.area();
            let rg = right_bbox.union(boxes[i]).area() - right_bbox.area();
            if lg <= rg {
                left_entries.push(e);
                left_bbox = left_bbox.union(boxes[i]);
            } else {
                right_entries.push(e);
                right_bbox = right_bbox.union(boxes[i]);
            }
        }

        self.nodes[n].bbox = left_bbox;
        self.nodes[n].kind = if is_leaf {
            NodeKind::Leaf(left_entries)
        } else {
            NodeKind::Inner(left_entries)
        };
        let right = self.push_node(Node {
            bbox: right_bbox,
            kind: if is_leaf {
                NodeKind::Leaf(right_entries)
            } else {
                NodeKind::Inner(right_entries)
            },
        });
        (n, right)
    }
}

impl<T> FromIterator<(BBox, T)> for RTree<T> {
    fn from_iter<I: IntoIterator<Item = (BBox, T)>>(iter: I) -> Self {
        RTree::bulk_load(iter.into_iter().collect())
    }
}

/// Picks seed entries for a linear split: the pair with the largest
/// separation normalised by the total extent, over both axes.
fn linear_pick_seeds(boxes: &[BBox]) -> (usize, usize) {
    debug_assert!(boxes.len() >= 2);
    let mut best = (0, 1);
    let mut best_sep = f64::NEG_INFINITY;
    for axis in 0..2 {
        let lo = |b: &BBox| if axis == 0 { b.min.x } else { b.min.y };
        let hi = |b: &BBox| if axis == 0 { b.max.x } else { b.max.y };
        let (mut max_lo, mut max_lo_i) = (f64::NEG_INFINITY, 0);
        let (mut min_hi, mut min_hi_i) = (f64::INFINITY, 0);
        let mut total_min = f64::INFINITY;
        let mut total_max = f64::NEG_INFINITY;
        for (i, b) in boxes.iter().enumerate() {
            if lo(b) > max_lo {
                max_lo = lo(b);
                max_lo_i = i;
            }
            if hi(b) < min_hi {
                min_hi = hi(b);
                min_hi_i = i;
            }
            total_min = total_min.min(lo(b));
            total_max = total_max.max(hi(b));
        }
        let extent = (total_max - total_min).max(1e-300);
        let sep = (max_lo - min_hi) / extent;
        if sep > best_sep && max_lo_i != min_hi_i {
            best_sep = sep;
            best = (max_lo_i, min_hi_i);
        }
    }
    best
}

/// Sort-Tile-Recursive grouping of entries into groups of at most
/// [`NODE_CAPACITY`].
fn str_pack<E: Copy>(entries: &[E], center: impl Fn(&E) -> crate::Point) -> Vec<Vec<E>> {
    let n = entries.len();
    if n <= NODE_CAPACITY {
        return vec![entries.to_vec()];
    }
    let pages = n.div_ceil(NODE_CAPACITY);
    let slices = (pages as f64).sqrt().ceil() as usize;
    let per_slice = n.div_ceil(slices);

    let mut sorted: Vec<E> = entries.to_vec();
    sorted.sort_by(|a, b| center(a).x.total_cmp(&center(b).x));

    let mut groups = Vec::with_capacity(pages);
    for slice in sorted.chunks(per_slice) {
        let mut slice: Vec<E> = slice.to_vec();
        slice.sort_by(|a, b| center(a).y.total_cmp(&center(b).y));
        for group in slice.chunks(NODE_CAPACITY) {
            groups.push(group.to_vec());
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Point, SplitMix64};

    fn random_boxes(n: usize, seed: u64) -> Vec<(BBox, usize)> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|i| {
                let x = rng.range_f64(0.0, 1000.0);
                let y = rng.range_f64(0.0, 1000.0);
                let w = rng.range_f64(0.0, 20.0);
                let h = rng.range_f64(0.0, 20.0);
                (BBox::new(Point::new(x, y), Point::new(x + w, y + h)), i)
            })
            .collect()
    }

    fn brute_force(items: &[(BBox, usize)], q: &BBox) -> Vec<usize> {
        let mut v: Vec<usize> = items
            .iter()
            .filter(|(b, _)| b.intersects(q))
            .map(|&(_, i)| i)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_tree() {
        let t: RTree<i32> = RTree::new();
        assert!(t.is_empty());
        assert!(t.bbox().is_empty());
        assert!(t
            .query_indices(&BBox::new(Point::ZERO, Point::new(1.0, 1.0)))
            .is_empty());
    }

    #[test]
    fn bulk_load_matches_brute_force() {
        let items = random_boxes(500, 42);
        let tree = RTree::bulk_load(items.clone());
        assert_eq!(tree.len(), 500);
        let mut rng = SplitMix64::new(7);
        for _ in 0..100 {
            let x = rng.range_f64(0.0, 1000.0);
            let y = rng.range_f64(0.0, 1000.0);
            let q = BBox::new(Point::new(x, y), Point::new(x + 50.0, y + 50.0));
            let mut got: Vec<usize> = tree
                .query_indices(&q)
                .into_iter()
                .map(|i| tree.item(i).1)
                .collect();
            got.sort_unstable();
            assert_eq!(got, brute_force(&items, &q));
        }
    }

    #[test]
    fn incremental_insert_matches_brute_force() {
        let items = random_boxes(300, 43);
        let mut tree: RTree<usize> = RTree::new();
        for (b, v) in items.iter() {
            tree.insert(*b, *v);
        }
        assert_eq!(tree.len(), 300);
        let mut rng = SplitMix64::new(8);
        for _ in 0..100 {
            let x = rng.range_f64(0.0, 1000.0);
            let y = rng.range_f64(0.0, 1000.0);
            let q = BBox::new(Point::new(x, y), Point::new(x + 80.0, y + 80.0));
            let mut got: Vec<usize> = tree.query(&q).copied().collect();
            got.sort_unstable();
            assert_eq!(got, brute_force(&items, &q));
        }
    }

    #[test]
    fn mixed_bulk_then_insert() {
        let items = random_boxes(200, 44);
        let (first, second) = items.split_at(100);
        let mut tree = RTree::bulk_load(first.to_vec());
        for (b, v) in second {
            tree.insert(*b, *v);
        }
        let q = BBox::new(Point::new(100.0, 100.0), Point::new(400.0, 400.0));
        let mut got: Vec<usize> = tree.query(&q).copied().collect();
        got.sort_unstable();
        assert_eq!(got, brute_force(&items, &q));
    }

    #[test]
    fn tree_bbox_covers_all_items() {
        let items = random_boxes(64, 45);
        let tree = RTree::bulk_load(items.clone());
        for (b, _) in &items {
            assert!(tree.bbox().contains_bbox(b));
        }
    }

    #[test]
    fn from_iterator_collects() {
        let tree: RTree<usize> = random_boxes(40, 46).into_iter().collect();
        assert_eq!(tree.len(), 40);
    }

    #[test]
    fn single_item_tree() {
        let b = BBox::new(Point::ZERO, Point::new(1.0, 1.0));
        let tree = RTree::bulk_load(vec![(b, "x")]);
        assert_eq!(tree.query(&b).count(), 1);
        assert_eq!(
            tree.query(&BBox::new(Point::new(5.0, 5.0), Point::new(6.0, 6.0)))
                .count(),
            0
        );
    }
}

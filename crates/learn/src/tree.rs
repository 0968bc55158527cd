//! Classification trees (the paper's §IV-B learning technique).
//!
//! A CART-style tree over mixed numeric/categorical features, selecting
//! splits by information gain (entropy reduction). Numeric columns split
//! on thresholds (midpoints between distinct sorted values); categorical
//! columns split one-vs-rest on a category.
//!
//! Two properties the paper relies on fall out of the construction:
//!
//! - **automatic feature selection** — features that never reduce
//!   impurity (e.g. options that always hold their default) simply never
//!   appear in the tree ([`ClassificationTree::used_features`]);
//! - **interpretability** — the tree renders as nested if/else questions
//!   ([`ClassificationTree::render`]).

use serde::{Deserialize, Serialize};

use crate::dataset::{Column, Dataset, Encoded, FeatureKind};

#[cfg(test)]
mod equivalence;
#[cfg(test)]
mod oracle;

/// Tree construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Do not split nodes smaller than this.
    pub min_samples_split: usize,
    /// Ignore splits with information gain below this.
    pub min_gain: f64,
}

impl Default for TreeParams {
    fn default() -> TreeParams {
        TreeParams {
            max_depth: 8,
            min_samples_split: 2,
            // Zero-gain splits are allowed (bounded by max_depth): greedy
            // gain alone cannot enter XOR-shaped interactions, where the
            // first split is uninformative but its children are pure.
            min_gain: 0.0,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        label: u16,
    },
    SplitNum {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
    SplitCat {
        feature: usize,
        category: u32,
        eq: Box<Node>,
        ne: Box<Node>,
    },
}

/// A trained classification tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassificationTree {
    root: Node,
    columns: Vec<Column>,
}

impl ClassificationTree {
    /// Fit a tree to `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty — fit trees only after at least one
    /// training example exists.
    pub fn fit(data: &Dataset, params: &TreeParams) -> ClassificationTree {
        ClassificationTree::fit_labels(data, data.labels(), params)
    }

    /// Fit a tree to `data`'s encoded rows against `labels` instead of the
    /// dataset's own labels, so several targets over one feature history
    /// (the evolvable VM's per-method trees) share one encoding.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `labels` is not one label per row.
    pub fn fit_labels(data: &Dataset, labels: &[u16], params: &TreeParams) -> ClassificationTree {
        assert_eq!(labels.len(), data.len(), "one label per row");
        ClassificationTree::fit_rows(data, labels, (0..data.len()).collect(), params)
    }

    /// Fit to the rows of `data` at `rows` (ascending): the tree
    /// [`ClassificationTree::fit`] builds on `data.subset(&rows)`, without
    /// copying the rows.
    pub(crate) fn fit_rows(
        data: &Dataset,
        labels: &[u16],
        rows: Vec<usize>,
        params: &TreeParams,
    ) -> ClassificationTree {
        assert!(!rows.is_empty(), "cannot fit a tree to an empty dataset");
        let n = rows.len();
        let mut scratch = FitScratch {
            order: rows,
            ..FitScratch::default()
        };
        ClassificationTree {
            root: Grower::new(data, labels, params, &mut scratch).grow(0, n, 0),
            columns: data.columns().to_vec(),
        }
    }

    /// Bring a tree fitted to `data` and `labels` without their last row
    /// up to date with that row: afterwards the tree is, bit for bit, the
    /// one [`ClassificationTree::fit_labels`] builds on all of `data`.
    ///
    /// A node's subtree depends only on its rows (ascending), their
    /// labels, its depth and `params`. So only the nodes on the new row's
    /// path are re-scored; a subtree none of whose rows changed is kept
    /// as it is, and a subtree is regrown only below the first node whose
    /// split changed. `scratch` keeps the buffers between calls, so
    /// refitting several trees, or the same tree again, reuses them.
    ///
    /// # Panics
    ///
    /// Panics unless `labels` holds one label per row and `data` has at
    /// least two rows. The result is exact only if the tree was fitted
    /// (or refitted) to `data` without its last row, with the same
    /// labels and `params`.
    pub fn refit_appended(
        &mut self,
        data: &Dataset,
        labels: &[u16],
        params: &TreeParams,
        scratch: &mut FitScratch,
    ) {
        assert_eq!(labels.len(), data.len(), "one label per row");
        assert!(
            data.len() >= 2,
            "a refit needs the rows the tree was fitted to"
        );
        assert_eq!(self.columns.len(), data.columns().len(), "same schema");
        let n = data.len();
        scratch.order.clear();
        scratch.order.extend(0..n);
        Grower::new(data, labels, params, scratch).regrow_path(&mut self.root, n - 1);
        // Interning only appends categories, so a column whose category
        // count is unchanged is unchanged.
        for (mine, now) in self.columns.iter_mut().zip(data.columns()) {
            if mine.categories.len() != now.categories.len() {
                mine.clone_from(now);
            }
        }
    }

    /// Predict the label of an encoded row.
    pub fn predict(&self, row: &[Encoded]) -> u16 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { label } => return *label,
                Node::SplitNum {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let v = match row[*feature] {
                        Encoded::Num(v) => v,
                        Encoded::Cat(_) => f64::NAN,
                    };
                    node = if v <= *threshold { left } else { right };
                }
                Node::SplitCat {
                    feature,
                    category,
                    eq,
                    ne,
                } => {
                    let c = match row[*feature] {
                        Encoded::Cat(c) => c,
                        Encoded::Num(_) => u32::MAX,
                    };
                    node = if c == *category { eq } else { ne };
                }
            }
        }
    }

    /// Column indices of features the tree actually splits on — the
    /// paper's "used features" (Table I).
    pub fn used_features(&self) -> Vec<usize> {
        let mut v = Vec::new();
        collect_features(&self.root, &mut v);
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Number of nodes (decision + leaf).
    pub fn node_count(&self) -> usize {
        count(&self.root)
    }

    /// Render the tree as indented if/else questions.
    pub fn render(&self) -> String {
        let mut out = String::new();
        render_node(&self.root, &self.columns, 0, &mut out);
        out
    }
}

fn collect_features(node: &Node, out: &mut Vec<usize>) {
    match node {
        Node::Leaf { .. } => {}
        Node::SplitNum {
            feature,
            left,
            right,
            ..
        } => {
            out.push(*feature);
            collect_features(left, out);
            collect_features(right, out);
        }
        Node::SplitCat {
            feature, eq, ne, ..
        } => {
            out.push(*feature);
            collect_features(eq, out);
            collect_features(ne, out);
        }
    }
}

fn count(node: &Node) -> usize {
    match node {
        Node::Leaf { .. } => 1,
        Node::SplitNum { left, right, .. } => 1 + count(left) + count(right),
        Node::SplitCat { eq, ne, .. } => 1 + count(eq) + count(ne),
    }
}

fn render_node(node: &Node, columns: &[Column], depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    match node {
        Node::Leaf { label } => out.push_str(&format!("{pad}=> class {label}\n")),
        Node::SplitNum {
            feature,
            threshold,
            left,
            right,
        } => {
            out.push_str(&format!(
                "{pad}{} <= {threshold}?\n",
                columns[*feature].name
            ));
            render_node(left, columns, depth + 1, out);
            out.push_str(&format!("{pad}else:\n"));
            render_node(right, columns, depth + 1, out);
        }
        Node::SplitCat {
            feature,
            category,
            eq,
            ne,
        } => {
            let cat_name = columns[*feature]
                .categories
                .get(*category as usize)
                .map_or("<unseen>", String::as_str);
            out.push_str(&format!(
                "{pad}{} == {cat_name:?}?\n",
                columns[*feature].name
            ));
            render_node(eq, columns, depth + 1, out);
            out.push_str(&format!("{pad}else:\n"));
            render_node(ne, columns, depth + 1, out);
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Split {
    Num { feature: usize, threshold: f64 },
    Cat { feature: usize, category: u32 },
}

impl Split {
    /// Whether `row` goes to the left (`<=` / `==`) side. `NaN`, and a
    /// value of the other kind, always go right.
    fn goes_left(&self, row: &[Encoded]) -> bool {
        match *self {
            Split::Num { feature, threshold } => match row[feature] {
                Encoded::Num(v) => v <= threshold,
                Encoded::Cat(_) => false,
            },
            Split::Cat { feature, category } => row[feature] == Encoded::Cat(category),
        }
    }

    /// Whether `node` is this split: the same feature and threshold bits,
    /// or the same feature and category.
    fn is(&self, node: &Node) -> bool {
        match (*self, node) {
            (
                Split::Num { feature, threshold },
                Node::SplitNum {
                    feature: f,
                    threshold: t,
                    ..
                },
            ) => feature == *f && threshold.to_bits() == t.to_bits(),
            (
                Split::Cat { feature, category },
                Node::SplitCat {
                    feature: f,
                    category: c,
                    ..
                },
            ) => feature == *f && category == *c,
            _ => false,
        }
    }

    /// The decision node of this split over `left` and `right`.
    fn node(self, left: Box<Node>, right: Box<Node>) -> Node {
        match self {
            Split::Num { feature, threshold } => Node::SplitNum {
                feature,
                threshold,
                left,
                right,
            },
            Split::Cat { feature, category } => Node::SplitCat {
                feature,
                category,
                eq: left,
                ne: right,
            },
        }
    }
}

/// Per-class tallies of a set of rows: how many rows of each class, and
/// the first (lowest) row index of each class.
#[derive(Debug, Default)]
struct Tally {
    count: Vec<usize>,
    first: Vec<usize>,
}

impl Tally {
    /// Size the tally for `classes` classes and clear it.
    fn reset(&mut self, classes: usize) {
        self.count.clear();
        self.count.resize(classes, 0);
        self.first.clear();
        self.first.resize(classes, usize::MAX);
    }

    fn clear(&mut self) {
        self.count.fill(0);
        self.first.fill(usize::MAX);
    }

    fn add(&mut self, class: usize, row: usize) {
        self.count[class] += 1;
        self.first[class] = self.first[class].min(row);
    }

    /// Push one `(first row, count)` term per class present.
    fn terms(&self, out: &mut Vec<(usize, usize)>) {
        out.clear();
        out.extend(
            self.first
                .iter()
                .zip(&self.count)
                .filter(|(_, &c)| c > 0)
                .map(|(&f, &c)| (f, c)),
        );
    }
}

/// Entropy of a set of `n` rows given one `(first row, count)` term per
/// class present. The terms are summed in first-row order: a node's rows
/// are kept in ascending row order, so this is the order in which a scan
/// of the rows meets the classes, and the float sum is the same.
fn entropy(terms: &mut [(usize, usize)], n: usize) -> f64 {
    terms.sort_unstable();
    let n = n as f64;
    -terms
        .iter()
        .map(|&(_, c)| {
            let p = c as f64 / n;
            p * p.log2()
        })
        .sum::<f64>()
}

/// Keep `split` if its gain clears `min_gain` and strictly beats the
/// best so far, so the first of equal-gain candidates wins.
fn consider(best: &mut Option<(f64, Split)>, gain: f64, split: Split, min_gain: f64) {
    if gain >= min_gain && best.as_ref().is_none_or(|(g, _)| gain > *g) {
        *best = Some((gain, split));
    }
}

/// The scratch space of tree fits: every buffer a fit or a refit uses
/// besides the nodes it grows. Buffers keep their capacity between
/// uses, so one scratch kept across [`ClassificationTree::refit_appended`]
/// calls allocates again only when a fit outgrows it.
#[derive(Debug, Default)]
pub struct FitScratch {
    /// Dense class of each dataset row (classes ascend with the labels).
    class_of: Vec<usize>,
    /// Label of each dense class.
    labels: Vec<u16>,
    /// The fit's rows; a node is a range of it, always ascending.
    order: Vec<usize>,
    spill: Vec<usize>,
    /// A numeric column's non-NaN `(value, row)` pairs, sorted by value.
    sorted: Vec<(f64, usize)>,
    /// `suffix[p * classes + c]`: first row of class `c` among
    /// `sorted[p..]` and the rows that always go right.
    suffix: Vec<usize>,
    cats: Vec<u32>,
    terms: Vec<(usize, usize)>,
    node: Tally,
    left: Tally,
    right: Tally,
}

/// Grows one tree over the rows in its scratch's `order`. All scratch
/// space is sized up front, once per fit; scoring a candidate split
/// allocates nothing.
///
/// A node is the range `order[lo..hi]` of row indices, always ascending:
/// splitting a node partitions its range stably in place.
struct Grower<'a> {
    rows: &'a [Vec<Encoded>],
    columns: &'a [Column],
    params: &'a TreeParams,
    s: &'a mut FitScratch,
}

impl<'a> Grower<'a> {
    /// A grower of the rows in `s.order`, with the rest of `s` sized and
    /// cleared for them.
    fn new(
        data: &'a Dataset,
        labels: &[u16],
        params: &'a TreeParams,
        s: &'a mut FitScratch,
    ) -> Self {
        let n = s.order.len();
        s.labels.clear();
        s.labels.extend(s.order.iter().map(|&i| labels[i]));
        s.labels.sort_unstable();
        s.labels.dedup();
        s.class_of.clear();
        s.class_of.resize(data.len(), 0);
        for &i in &s.order {
            s.class_of[i] = s
                .labels
                .binary_search(&labels[i])
                .expect("label is a class");
        }
        let k = s.labels.len();
        s.spill.clear();
        s.spill.reserve(n);
        s.sorted.clear();
        s.sorted.reserve(n);
        s.suffix.clear();
        s.suffix.reserve((n + 1) * k);
        s.cats.clear();
        s.cats.reserve(n);
        s.terms.clear();
        s.terms.reserve(k);
        s.node.reset(k);
        s.left.reset(k);
        s.right.reset(k);
        Grower {
            rows: data.rows(),
            columns: data.columns(),
            params,
            s,
        }
    }

    fn grow(&mut self, lo: usize, hi: usize, depth: usize) -> Node {
        match self.decide(lo, hi, depth) {
            (label, None) => Node::Leaf { label },
            (_, Some(split)) => self.grow_split(lo, hi, depth, split),
        }
    }

    /// Split the node by `split` and grow both sides.
    fn grow_split(&mut self, lo: usize, hi: usize, depth: usize, split: Split) -> Node {
        let mid = self.partition(lo, hi, &split);
        let left = Box::new(self.grow(lo, mid, depth + 1));
        let right = Box::new(self.grow(mid, hi, depth + 1));
        split.node(left, right)
    }

    /// Bring `node` — grown from all of `order` but its row `new` — up to
    /// date with that row. Each node on `new`'s path is re-scored. While
    /// its split is unchanged, the side without `new` keeps its rows, so
    /// its subtree is kept, and the walk goes on down `new`'s side; below
    /// the first changed node the subtree is regrown.
    fn regrow_path(&mut self, mut node: &mut Node, new: usize) {
        let (mut lo, mut hi, mut depth) = (0, self.s.order.len(), 0);
        loop {
            let (label, split) = self.decide(lo, hi, depth);
            let Some(split) = split else {
                *node = Node::Leaf { label };
                return;
            };
            if !split.is(node) {
                *node = self.grow_split(lo, hi, depth, split);
                return;
            }
            let mid = self.partition(lo, hi, &split);
            let goes_left = split.goes_left(&self.rows[new]);
            node = match node {
                Node::SplitNum { left, right, .. }
                | Node::SplitCat {
                    eq: left,
                    ne: right,
                    ..
                } => {
                    if goes_left {
                        hi = mid;
                        left
                    } else {
                        lo = mid;
                        right
                    }
                }
                Node::Leaf { .. } => unreachable!("a split node"),
            };
            depth += 1;
        }
    }

    /// What `grow` makes of the node `order[lo..hi]` at `depth`: its
    /// majority label, and the split it takes unless it is a leaf.
    fn decide(&mut self, lo: usize, hi: usize, depth: usize) -> (u16, Option<Split>) {
        let s = &mut *self.s;
        s.node.clear();
        for &i in &s.order[lo..hi] {
            s.node.add(s.class_of[i], i);
        }
        // Ties break toward the smaller label for determinism.
        let counts = &s.node.count;
        let majority = (0..counts.len())
            .max_by_key(|&c| (counts[c], std::cmp::Reverse(c)))
            .expect("a node has rows");
        let label = s.labels[majority];
        let pure = counts.iter().filter(|&&c| c > 0).count() == 1;
        if depth >= self.params.max_depth || hi - lo < self.params.min_samples_split || pure {
            return (label, None);
        }
        s.node.terms(&mut s.terms);
        let parent = entropy(&mut s.terms, hi - lo);
        let mut best = None;
        for (feature, column) in self.columns.iter().enumerate() {
            match column.kind {
                FeatureKind::Numeric => self.score_numeric(lo, hi, feature, parent, &mut best),
                FeatureKind::Categorical => {
                    self.score_categorical(lo, hi, feature, parent, &mut best)
                }
            }
        }
        (label, best.map(|(_, split)| split))
    }

    /// Score every threshold of a numeric column. The column's non-NaN
    /// values are sorted once; candidates are the midpoints of adjacent
    /// distinct values, in ascending order, and a sweep moves rows to the
    /// left side as the threshold passes them.
    fn score_numeric(
        &mut self,
        lo: usize,
        hi: usize,
        feature: usize,
        parent: f64,
        best: &mut Option<(f64, Split)>,
    ) {
        let n = hi - lo;
        let s = &mut *self.s;
        let k = s.labels.len();
        s.sorted.clear();
        s.right.clear();
        for &i in &s.order[lo..hi] {
            match self.rows[i][feature] {
                Encoded::Num(v) if !v.is_nan() => s.sorted.push((v, i)),
                // NaN fails every `<=`: these rows go right at any threshold.
                _ => s.right.add(s.class_of[i], i),
            }
        }
        // Equal values are never split apart, so their order is immaterial.
        s.sorted.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let m = s.sorted.len();
        s.suffix.clear();
        s.suffix.resize((m + 1) * k, usize::MAX);
        s.suffix[m * k..].copy_from_slice(&s.right.first);
        for p in (0..m).rev() {
            let (head, tail) = s.suffix.split_at_mut((p + 1) * k);
            head[p * k..].copy_from_slice(&tail[..k]);
            let (_, i) = s.sorted[p];
            let slot = &mut head[p * k + s.class_of[i]];
            *slot = (*slot).min(i);
        }
        s.left.clear();
        let mut taken = 0;
        let mut run = 0;
        while run < m {
            // `w0` is the first value of its run of equal values, as
            // `dedup` keeps it (`-0.0` before `+0.0`).
            let w0 = s.sorted[run].0;
            run += 1;
            while run < m && s.sorted[run].0 == w0 {
                run += 1;
            }
            if run == m {
                break;
            }
            let threshold = (w0 + s.sorted[run].0) / 2.0;
            // Midpoints never decrease, so the left side only grows. A
            // midpoint may round onto (or overflow past) the next value,
            // so the sweep compares values, not run boundaries.
            while taken < m && s.sorted[taken].0 <= threshold {
                let (_, i) = s.sorted[taken];
                s.left.add(s.class_of[i], i);
                taken += 1;
            }
            // An empty side is no split. That covers the one NaN midpoint,
            // (−∞ + ∞) / 2: it can only be the first candidate, and no
            // value is `<= NaN`.
            if taken == 0 || taken == n {
                continue;
            }
            let right_first = &s.suffix[taken * k..(taken + 1) * k];
            let gain = split_gain(
                parent,
                n,
                &s.node,
                &s.left,
                taken,
                right_first,
                &mut s.terms,
            );
            consider(
                best,
                gain,
                Split::Num { feature, threshold },
                self.params.min_gain,
            );
        }
    }

    /// Score every category of a categorical column (one-vs-rest), in
    /// ascending category order, with one counting pass each.
    fn score_categorical(
        &mut self,
        lo: usize,
        hi: usize,
        feature: usize,
        parent: f64,
        best: &mut Option<(f64, Split)>,
    ) {
        let n = hi - lo;
        let s = &mut *self.s;
        s.cats.clear();
        for &i in &s.order[lo..hi] {
            if let Encoded::Cat(c) = self.rows[i][feature] {
                s.cats.push(c);
            }
        }
        s.cats.sort_unstable();
        s.cats.dedup();
        for &category in &s.cats {
            s.left.clear();
            s.right.clear();
            let mut taken = 0;
            for &i in &s.order[lo..hi] {
                if self.rows[i][feature] == Encoded::Cat(category) {
                    s.left.add(s.class_of[i], i);
                    taken += 1;
                } else {
                    s.right.add(s.class_of[i], i);
                }
            }
            if taken == n {
                continue;
            }
            let gain = split_gain(
                parent,
                n,
                &s.node,
                &s.left,
                taken,
                &s.right.first,
                &mut s.terms,
            );
            consider(
                best,
                gain,
                Split::Cat { feature, category },
                self.params.min_gain,
            );
        }
    }

    /// Stably partition `order[lo..hi]` by `split`; returns where the
    /// right side starts.
    fn partition(&mut self, lo: usize, hi: usize, split: &Split) -> usize {
        let s = &mut *self.s;
        s.spill.clear();
        let mut mid = lo;
        for k in lo..hi {
            let i = s.order[k];
            if split.goes_left(&self.rows[i]) {
                s.order[mid] = i;
                mid += 1;
            } else {
                s.spill.push(i);
            }
        }
        s.order[mid..hi].copy_from_slice(&s.spill);
        mid
    }
}

/// Information gain of splitting a node of `n` rows (tallied in `node`)
/// into `left` (`n_left` rows) and the rest, whose class `c` first
/// appears at row `right_first[c]`.
fn split_gain(
    parent: f64,
    n: usize,
    node: &Tally,
    left: &Tally,
    n_left: usize,
    right_first: &[usize],
    terms: &mut Vec<(usize, usize)>,
) -> f64 {
    left.terms(terms);
    let left_entropy = entropy(terms, n_left);
    terms.clear();
    terms.extend(
        node.count
            .iter()
            .zip(&left.count)
            .zip(right_first)
            .filter(|((&all, &l), _)| all > l)
            .map(|((&all, &l), &f)| (f, all - l)),
    );
    let right_entropy = entropy(terms, n - n_left);
    let nf = n as f64;
    parent - ((n_left as f64 / nf) * left_entropy + ((n - n_left) as f64 / nf) * right_entropy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Raw;

    fn make_dataset(rows: &[(f64, &str, u16)]) -> Dataset {
        let mut d = Dataset::new();
        for &(n, c, label) in rows {
            d.push(
                &[
                    ("x".to_owned(), Raw::Num(n)),
                    ("kind".to_owned(), Raw::Cat(c.to_owned())),
                ],
                label,
            )
            .unwrap();
        }
        d
    }

    #[test]
    fn learns_a_numeric_threshold() {
        let d = make_dataset(&[
            (1.0, "a", 0),
            (2.0, "a", 0),
            (3.0, "a", 0),
            (10.0, "a", 1),
            (11.0, "a", 1),
            (12.0, "a", 1),
        ]);
        let t = ClassificationTree::fit(&d, &TreeParams::default());
        assert_eq!(
            t.predict(
                &d.encode(&[
                    ("x".to_owned(), Raw::Num(2.5)),
                    ("kind".to_owned(), Raw::Cat("a".into()))
                ])
                .unwrap()
            ),
            0
        );
        assert_eq!(
            t.predict(
                &d.encode(&[
                    ("x".to_owned(), Raw::Num(100.0)),
                    ("kind".to_owned(), Raw::Cat("a".into()))
                ])
                .unwrap()
            ),
            1
        );
        // Only feature 0 is informative.
        assert_eq!(t.used_features(), vec![0]);
    }

    #[test]
    fn learns_a_categorical_split() {
        let d = make_dataset(&[
            (5.0, "xml", 0),
            (5.0, "xml", 0),
            (5.0, "pdf", 1),
            (5.0, "pdf", 1),
        ]);
        let t = ClassificationTree::fit(&d, &TreeParams::default());
        assert_eq!(t.used_features(), vec![1]);
        let enc = d
            .encode(&[
                ("x".to_owned(), Raw::Num(5.0)),
                ("kind".to_owned(), Raw::Cat("pdf".to_owned())),
            ])
            .unwrap();
        assert_eq!(t.predict(&enc), 1);
    }

    #[test]
    fn pure_dataset_is_a_single_leaf() {
        let d = make_dataset(&[(1.0, "a", 3), (2.0, "b", 3), (9.0, "c", 3)]);
        let t = ClassificationTree::fit(&d, &TreeParams::default());
        assert_eq!(t.node_count(), 1);
        assert!(t.used_features().is_empty());
        let enc = d
            .encode(&[
                ("x".to_owned(), Raw::Num(42.0)),
                ("kind".to_owned(), Raw::Cat("zzz".to_owned())),
            ])
            .unwrap();
        assert_eq!(t.predict(&enc), 3);
    }

    #[test]
    fn constant_features_never_appear() {
        // Feature 0 is constant (a disabled option at its default);
        // feature 1 fully determines the label.
        let d = make_dataset(&[(7.0, "s", 0), (7.0, "m", 1), (7.0, "s", 0), (7.0, "m", 1)]);
        let t = ClassificationTree::fit(&d, &TreeParams::default());
        assert_eq!(t.used_features(), vec![1]);
    }

    #[test]
    fn max_depth_limits_growth() {
        let rows: Vec<(f64, &str, u16)> =
            (0..64).map(|i| (i as f64, "a", (i % 4) as u16)).collect();
        let d = make_dataset(&rows);
        let shallow = ClassificationTree::fit(
            &d,
            &TreeParams {
                max_depth: 1,
                ..TreeParams::default()
            },
        );
        let deep = ClassificationTree::fit(&d, &TreeParams::default());
        assert!(shallow.node_count() <= 3);
        assert!(deep.node_count() > shallow.node_count());
    }

    #[test]
    fn xor_requires_depth_two() {
        let d = make_dataset(&[
            (0.0, "a", 0),
            (0.0, "b", 1),
            (1.0, "a", 1),
            (1.0, "b", 0),
            (0.0, "a", 0),
            (0.0, "b", 1),
            (1.0, "a", 1),
            (1.0, "b", 0),
        ]);
        let t = ClassificationTree::fit(&d, &TreeParams::default());
        for (x, k, want) in [
            (0.0, "a", 0u16),
            (0.0, "b", 1),
            (1.0, "a", 1),
            (1.0, "b", 0),
        ] {
            let enc = d
                .encode(&[
                    ("x".to_owned(), Raw::Num(x)),
                    ("kind".to_owned(), Raw::Cat(k.to_owned())),
                ])
                .unwrap();
            assert_eq!(t.predict(&enc), want, "xor({x}, {k})");
        }
        assert_eq!(t.used_features(), vec![0, 1]);
    }

    #[test]
    fn render_mentions_feature_names() {
        let d = make_dataset(&[(1.0, "a", 0), (9.0, "a", 1)]);
        let t = ClassificationTree::fit(&d, &TreeParams::default());
        let text = t.render();
        assert!(text.contains("x <="), "{text}");
        assert!(text.contains("class 0"), "{text}");
    }

    #[test]
    fn serde_roundtrip() {
        let d = make_dataset(&[(1.0, "a", 0), (9.0, "b", 1)]);
        let t = ClassificationTree::fit(&d, &TreeParams::default());
        let json = serde_json::to_string(&t).unwrap();
        let back: ClassificationTree = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}

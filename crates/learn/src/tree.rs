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
        ClassificationTree {
            root: Grower::new(data, labels, rows, params).grow(0, n, 0),
            columns: data.columns().to_vec(),
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
}

/// Per-class tallies of a set of rows: how many rows of each class, and
/// the first (lowest) row index of each class.
#[derive(Debug)]
struct Tally {
    count: Vec<usize>,
    first: Vec<usize>,
}

impl Tally {
    fn new(classes: usize) -> Tally {
        Tally {
            count: vec![0; classes],
            first: vec![usize::MAX; classes],
        }
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

/// Grows one tree. All scratch space is allocated up front, once per
/// fit; scoring a candidate split allocates nothing.
///
/// A node is the range `order[lo..hi]` of row indices, always ascending:
/// splitting a node partitions its range stably in place.
struct Grower<'a> {
    rows: &'a [Vec<Encoded>],
    columns: &'a [Column],
    params: &'a TreeParams,
    /// Dense class of each dataset row (classes ascend with the labels).
    class_of: Vec<usize>,
    /// Label of each dense class.
    labels: Vec<u16>,
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

impl<'a> Grower<'a> {
    fn new(data: &'a Dataset, labels: &[u16], order: Vec<usize>, params: &'a TreeParams) -> Self {
        let mut classes: Vec<u16> = order.iter().map(|&i| labels[i]).collect();
        classes.sort_unstable();
        classes.dedup();
        let mut class_of = vec![0; data.len()];
        for &i in &order {
            class_of[i] = classes.binary_search(&labels[i]).expect("label is a class");
        }
        let (n, k) = (order.len(), classes.len());
        Grower {
            rows: data.rows(),
            columns: data.columns(),
            params,
            class_of,
            labels: classes,
            order,
            spill: Vec::with_capacity(n),
            sorted: Vec::with_capacity(n),
            suffix: Vec::with_capacity((n + 1) * k),
            cats: Vec::with_capacity(n),
            terms: Vec::with_capacity(k),
            node: Tally::new(k),
            left: Tally::new(k),
            right: Tally::new(k),
        }
    }

    fn grow(&mut self, lo: usize, hi: usize, depth: usize) -> Node {
        self.node.clear();
        for &i in &self.order[lo..hi] {
            self.node.add(self.class_of[i], i);
        }
        // Ties break toward the smaller label for determinism.
        let counts = &self.node.count;
        let majority = (0..counts.len())
            .max_by_key(|&c| (counts[c], std::cmp::Reverse(c)))
            .expect("a node has rows");
        let leaf = Node::Leaf {
            label: self.labels[majority],
        };
        let pure = counts.iter().filter(|&&c| c > 0).count() == 1;
        if depth >= self.params.max_depth || hi - lo < self.params.min_samples_split || pure {
            return leaf;
        }
        self.node.terms(&mut self.terms);
        let parent = entropy(&mut self.terms, hi - lo);
        let mut best = None;
        for (feature, column) in self.columns.iter().enumerate() {
            match column.kind {
                FeatureKind::Numeric => self.score_numeric(lo, hi, feature, parent, &mut best),
                FeatureKind::Categorical => {
                    self.score_categorical(lo, hi, feature, parent, &mut best)
                }
            }
        }
        let Some((_, split)) = best else {
            return leaf;
        };
        let mid = self.partition(lo, hi, &split);
        let left = Box::new(self.grow(lo, mid, depth + 1));
        let right = Box::new(self.grow(mid, hi, depth + 1));
        match split {
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
        let k = self.labels.len();
        self.sorted.clear();
        self.right.clear();
        for &i in &self.order[lo..hi] {
            match self.rows[i][feature] {
                Encoded::Num(v) if !v.is_nan() => self.sorted.push((v, i)),
                // NaN fails every `<=`: these rows go right at any threshold.
                _ => self.right.add(self.class_of[i], i),
            }
        }
        // Equal values are never split apart, so their order is immaterial.
        self.sorted.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let m = self.sorted.len();
        self.suffix.clear();
        self.suffix.resize((m + 1) * k, usize::MAX);
        self.suffix[m * k..].copy_from_slice(&self.right.first);
        for p in (0..m).rev() {
            let (head, tail) = self.suffix.split_at_mut((p + 1) * k);
            head[p * k..].copy_from_slice(&tail[..k]);
            let (_, i) = self.sorted[p];
            let slot = &mut head[p * k + self.class_of[i]];
            *slot = (*slot).min(i);
        }
        self.left.clear();
        let mut taken = 0;
        let mut run = 0;
        while run < m {
            // `w0` is the first value of its run of equal values, as
            // `dedup` keeps it (`-0.0` before `+0.0`).
            let w0 = self.sorted[run].0;
            run += 1;
            while run < m && self.sorted[run].0 == w0 {
                run += 1;
            }
            if run == m {
                break;
            }
            let threshold = (w0 + self.sorted[run].0) / 2.0;
            // Midpoints never decrease, so the left side only grows. A
            // midpoint may round onto (or overflow past) the next value,
            // so the sweep compares values, not run boundaries.
            while taken < m && self.sorted[taken].0 <= threshold {
                let (_, i) = self.sorted[taken];
                self.left.add(self.class_of[i], i);
                taken += 1;
            }
            // An empty side is no split. That covers the one NaN midpoint,
            // (−∞ + ∞) / 2: it can only be the first candidate, and no
            // value is `<= NaN`.
            if taken == 0 || taken == n {
                continue;
            }
            let right_first = &self.suffix[taken * k..(taken + 1) * k];
            let gain = split_gain(
                parent,
                n,
                &self.node,
                &self.left,
                taken,
                right_first,
                &mut self.terms,
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
        self.cats.clear();
        for &i in &self.order[lo..hi] {
            if let Encoded::Cat(c) = self.rows[i][feature] {
                self.cats.push(c);
            }
        }
        self.cats.sort_unstable();
        self.cats.dedup();
        for &category in &self.cats {
            self.left.clear();
            self.right.clear();
            let mut taken = 0;
            for &i in &self.order[lo..hi] {
                if self.rows[i][feature] == Encoded::Cat(category) {
                    self.left.add(self.class_of[i], i);
                    taken += 1;
                } else {
                    self.right.add(self.class_of[i], i);
                }
            }
            if taken == n {
                continue;
            }
            let gain = split_gain(
                parent,
                n,
                &self.node,
                &self.left,
                taken,
                &self.right.first,
                &mut self.terms,
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
        self.spill.clear();
        let mut mid = lo;
        for k in lo..hi {
            let i = self.order[k];
            if split.goes_left(&self.rows[i]) {
                self.order[mid] = i;
                mid += 1;
            } else {
                self.spill.push(i);
            }
        }
        self.order[mid..hi].copy_from_slice(&self.spill);
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

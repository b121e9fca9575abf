//! ASCII rendering of the paper's "concrete diagrams" (Fig. 3): one row per
//! stream, offset by its start slot, showing the segment numbers it
//! broadcasts. Used by the examples to make schedules inspectable.

use crate::cost::lengths;
use crate::forest::MergeForest;
use crate::tree::MergeTree;

/// Renders a single tree over slotted times as a Fig. 3 style diagram.
///
/// Each stream occupies one row; column `t` of a row shows the last digit of
/// the part broadcast during slot `[t, t+1)`. Stream names are `A, B, C, …`
/// by arrival order (matching the paper's figure), falling back to `#i` past
/// 26 streams.
fn render_tree(tree: &MergeTree, times: &[i64], media_len: u64) -> String {
    let lens = lengths(tree, times);
    let origin = times[0];
    let mut out = String::new();
    let total_span = (times[tree.len() - 1] - origin) + media_len as i64;
    push_ruler(&mut out, total_span);
    for x in 0..tree.len() {
        let len = if x == 0 { media_len as i64 } else { lens[x] };
        push_stream_row(&mut out, x, times[x] - origin, len);
    }
    out
}

/// Renders a whole forest (trees separated by a blank line).
pub fn render_forest(forest: &MergeForest, times: &[i64], media_len: u64) -> String {
    let mut out = String::new();
    for (i, (range, tree)) in forest.iter_with_ranges().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&render_tree(tree, &times[range], media_len));
    }
    out
}

fn stream_name(x: usize) -> String {
    if x < 26 {
        // sm-lint: allow(narrowing-cast) — guarded by `x < 26` on the line above
        char::from(b'A' + x as u8).to_string()
    } else {
        format!("#{x}")
    }
}

fn push_ruler(out: &mut String, span: i64) {
    use std::fmt::Write;
    let _ = write!(out, "{:>8} ", "slot");
    for t in 0..span {
        let _ = write!(out, "{}", (t % 10));
    }
    out.push('\n');
}

fn push_stream_row(out: &mut String, x: usize, offset: i64, len: i64) {
    use std::fmt::Write;
    let label = format!("{}({})", stream_name(x), x);
    let _ = write!(out, "{label:>8} ");
    for _ in 0..offset {
        out.push(' ');
    }
    for part in 1..=len {
        let _ = write!(out, "{}", (part % 10));
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::consecutive_slots;

    fn fig4() -> MergeTree {
        MergeTree::from_parents(&[
            None,
            Some(0),
            Some(0),
            Some(0),
            Some(3),
            Some(0),
            Some(5),
            Some(5),
        ])
        .unwrap()
    }

    #[test]
    fn renders_all_streams() {
        let t = fig4();
        let times = consecutive_slots(8);
        let s = render_tree(&t, &times, 15);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 9); // ruler + 8 streams
        assert!(lines[1].contains("A(0)"));
        assert!(lines[8].contains("H(7)"));
        // Stream A broadcasts 15 parts: digits 123456789012345.
        assert!(lines[1].ends_with("123456789012345"));
        // Stream F (index 5) has length 9 and starts at slot 5.
        assert!(lines[6].ends_with("     123456789"));
    }

    #[test]
    fn forest_rendering_contains_all_trees() {
        let f = MergeForest::from_trees(vec![MergeTree::chain(2), MergeTree::chain(2)]).unwrap();
        let times = consecutive_slots(4);
        let s = render_forest(&f, &times, 5);
        // Two rulers, four streams.
        assert_eq!(s.matches("slot").count(), 2);
        assert_eq!(s.matches("A(0)").count(), 2);
    }

    #[test]
    fn stream_names_past_z() {
        assert_eq!(stream_name(0), "A");
        assert_eq!(stream_name(25), "Z");
        assert_eq!(stream_name(30), "#30");
    }
}

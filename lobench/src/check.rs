//! The output check: message encoding, per-read validation and the
//! exactly-once timeline audit.
//!
//! Every post message encodes the phase tag and a run-wide sequence number,
//! followed by filler derived from that number, so each timeline entry can
//! be traced back to exactly one request and any byte damage shows.

use std::collections::HashMap;

use crate::graph::Graph;

/// One account's timeline entries, newest first.
pub type Timeline = Vec<Vec<u8>>;

/// Bytes before the filler: one tag byte, ten decimal digits, one `:`.
const HEADER: usize = 12;

/// The message of post `seq` in phase `tag`, `size` bytes long
/// (at least the 12-byte header).
pub fn message(tag: u8, seq: u64, size: usize) -> String {
    let mut out = format!("{}{seq:010}:", tag as char);
    out.extend((0..size.saturating_sub(HEADER)).map(|i| filler(seq, i) as char));
    out
}

fn filler(seq: u64, i: usize) -> u8 {
    b'a' + ((seq + i as u64) % 26) as u8
}

/// Parse a message back into `(tag, seq)`, verifying the filler.
pub fn parse_message(msg: &[u8]) -> Option<(u8, u64)> {
    if msg.len() < HEADER || msg[HEADER - 1] != b':' || !msg[1..11].iter().all(u8::is_ascii_digit) {
        return None;
    }
    let seq: u64 = std::str::from_utf8(&msg[1..11]).ok()?.parse().ok()?;
    let filler_ok = msg[HEADER..].iter().enumerate().all(|(i, &b)| b == filler(seq, i));
    filler_ok.then_some((msg[0], seq))
}

/// Parse a stored timeline entry (`user/NNNNNN|message`) into
/// `(author index, tag, seq)`.
pub fn parse_entry(entry: &[u8]) -> Option<(usize, u8, u64)> {
    let sep = entry.iter().position(|&b| b == b'|')?;
    let author = std::str::from_utf8(entry[..sep].strip_prefix(b"user/")?).ok()?;
    if author.len() != 6 {
        return None;
    }
    let author: usize = author.parse().ok()?;
    let (tag, seq) = parse_message(&entry[sep + 1..])?;
    Some((author, tag, seq))
}

/// Validate one `get_timeline(limit)` result read by `reader`: at most
/// `limit` entries, each parseable, each by the reader or a followee.
pub fn check_read(
    graph: &Graph,
    reader: usize,
    limit: usize,
    entries: &[Vec<u8>],
) -> Result<(), String> {
    if entries.len() > limit {
        return Err(format!("reader {reader}: {} entries > limit {limit}", entries.len()));
    }
    for entry in entries {
        let Some((author, _, seq)) = parse_entry(entry) else {
            return Err(format!("reader {reader}: malformed entry {:?}", preview(entry)));
        };
        if author != reader && !graph.follows(reader, author) {
            return Err(format!("reader {reader}: post {seq} by non-followee {author}"));
        }
    }
    Ok(())
}

/// What the run knows about one post it sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostRecord {
    /// Author account index.
    pub author: usize,
    /// Phase tag the message carries.
    pub tag: u8,
    /// Final outcome as the client saw it.
    pub status: PostStatus,
}

/// Client-visible outcome of a post.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostStatus {
    /// Sent, no reply yet (treated as failed by the audit).
    Pending,
    /// The client received success.
    Acked,
    /// The client received an error.
    Failed,
}

/// Audit every account's full timeline against the ledger of posts sent
/// (`ledger[seq]`). Returns one line per violation:
///
/// - an acked post must appear exactly once in its author's timeline and in
///   each follower's;
/// - a failed or unanswered post must appear at most once, and in all or
///   none of those timelines;
/// - every entry must parse and belong to a known post whose author is the
///   reader or one of its followees.
pub fn audit(graph: &Graph, ledger: &[PostRecord], timelines: &[Timeline]) -> Vec<String> {
    let mut problems = Vec::new();
    // counts[(reader, seq)] = occurrences.
    let mut counts: HashMap<(usize, u64), u32> = HashMap::new();
    for (reader, entries) in timelines.iter().enumerate() {
        for entry in entries {
            match parse_entry(entry) {
                None => problems
                    .push(format!("timeline {reader}: malformed entry {:?}", preview(entry))),
                Some((author, tag, seq)) => {
                    let known = ledger
                        .get(seq as usize)
                        .is_some_and(|p| p.author == author && p.tag == tag);
                    if !known {
                        problems.push(format!("timeline {reader}: unknown post {seq} by {author}"));
                    } else if author != reader && !graph.follows(reader, author) {
                        problems.push(format!(
                            "timeline {reader}: post {seq} by non-followee {author}"
                        ));
                    } else {
                        *counts.entry((reader, seq)).or_default() += 1;
                    }
                }
            }
        }
    }
    for (seq, post) in ledger.iter().enumerate() {
        let seq = seq as u64;
        let homes: Vec<usize> = std::iter::once(post.author)
            .chain(graph.followers[post.author].iter().copied())
            .collect();
        let seen: Vec<u32> =
            homes.iter().map(|r| counts.get(&(*r, seq)).copied().unwrap_or(0)).collect();
        match post.status {
            PostStatus::Acked => {
                for (r, c) in homes.iter().zip(&seen) {
                    match c {
                        1 => {}
                        0 => problems.push(format!("acked post {seq} lost from timeline {r}")),
                        n => {
                            problems.push(format!("acked post {seq} appears {n}x in timeline {r}"))
                        }
                    }
                }
            }
            PostStatus::Failed | PostStatus::Pending => {
                if seen.iter().any(|&c| c > 1) {
                    problems.push(format!("failed post {seq} duplicated: {seen:?}"));
                } else if seen.iter().any(|&c| c != seen[0]) {
                    problems.push(format!("failed post {seq} partially applied: {seen:?}"));
                }
            }
        }
    }
    problems
}

fn preview(entry: &[u8]) -> String {
    String::from_utf8_lossy(&entry[..entry.len().min(40)]).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 follows 1, 1 follows 2, 2 follows 0 and 1.
    fn graph() -> Graph {
        Graph::from_followees(vec![vec![1], vec![2], vec![0, 1]])
    }

    fn entry(author: usize, tag: u8, seq: u64, size: usize) -> Vec<u8> {
        format!("user/{author:06}|{}", message(tag, seq, size)).into_bytes()
    }

    /// Posts 0 (by 1) and 1 (by 2) acked; timelines hold exactly one copy
    /// each where they belong.
    fn clean() -> (Graph, Vec<PostRecord>, Vec<Timeline>) {
        let g = graph();
        let ledger = vec![
            PostRecord { author: 1, tag: b'p', status: PostStatus::Acked },
            PostRecord { author: 2, tag: b'p', status: PostStatus::Acked },
        ];
        // Homes of post 0: author 1, followers of 1 = {0, 2}.
        // Homes of post 1: author 2, followers of 2 = {1}.
        let timelines = vec![
            vec![entry(1, b'p', 0, 16)],
            vec![entry(2, b'p', 1, 16), entry(1, b'p', 0, 16)],
            vec![entry(2, b'p', 1, 16), entry(1, b'p', 0, 16)],
        ];
        (g, ledger, timelines)
    }

    #[test]
    fn messages_round_trip_and_reject_damage() {
        for size in [12, 16, 4096] {
            let m = message(b'w', 42, size);
            assert_eq!(m.len(), size);
            assert_eq!(parse_message(m.as_bytes()), Some((b'w', 42)));
        }
        let mut m = message(b'w', 7, 64).into_bytes();
        m[40] ^= 1;
        assert_eq!(parse_message(&m), None);
        assert_eq!(parse_entry(&entry(3, b'b', 9, 16)), Some((3, b'b', 9)));
    }

    #[test]
    fn clean_state_passes() {
        let (g, ledger, timelines) = clean();
        assert_eq!(audit(&g, &ledger, &timelines), Vec::<String>::new());
    }

    #[test]
    fn flags_lost_entry() {
        let (g, ledger, mut timelines) = clean();
        timelines[0].clear();
        let p = audit(&g, &ledger, &timelines);
        assert!(p.iter().any(|s| s.contains("post 0 lost from timeline 0")), "{p:?}");
    }

    #[test]
    fn flags_duplicated_entry() {
        let (g, ledger, mut timelines) = clean();
        timelines[2].push(entry(1, b'p', 0, 16));
        let p = audit(&g, &ledger, &timelines);
        assert!(p.iter().any(|s| s.contains("post 0 appears 2x in timeline 2")), "{p:?}");
    }

    #[test]
    fn flags_foreign_entries() {
        // A post nobody sent, and a known post in a non-follower's timeline.
        let (g, ledger, mut timelines) = clean();
        timelines[1].push(entry(2, b'p', 99, 16));
        timelines[0].push(entry(2, b'p', 1, 16));
        let p = audit(&g, &ledger, &timelines);
        assert!(p.iter().any(|s| s.contains("unknown post 99")), "{p:?}");
        assert!(p.iter().any(|s| s.contains("timeline 0: post 1 by non-followee 2")), "{p:?}");
    }

    #[test]
    fn flags_malformed_entry() {
        let (g, ledger, mut timelines) = clean();
        let mut bad = entry(1, b'p', 0, 16);
        let last = bad.len() - 1;
        bad[last] = b'!';
        timelines[1].push(bad);
        timelines[1].push(b"no separator".to_vec());
        let p = audit(&g, &ledger, &timelines);
        assert_eq!(p.iter().filter(|s| s.contains("malformed")).count(), 2, "{p:?}");
    }

    #[test]
    fn failed_post_must_be_all_or_none() {
        let (g, mut ledger, mut timelines) = clean();
        ledger[0].status = PostStatus::Failed;
        assert!(audit(&g, &ledger, &timelines).is_empty(), "applied everywhere is allowed");
        for t in &mut timelines {
            t.retain(|e| parse_entry(e).map(|(_, _, s)| s) != Some(0));
        }
        assert!(audit(&g, &ledger, &timelines).is_empty(), "applied nowhere is allowed");
        timelines[0].push(entry(1, b'p', 0, 16));
        let p = audit(&g, &ledger, &timelines);
        assert!(p.iter().any(|s| s.contains("partially applied")), "{p:?}");
    }

    #[test]
    fn read_check_catches_each_fault() {
        let g = graph();
        let ok = vec![entry(2, b'p', 1, 16), entry(1, b'p', 0, 16)];
        assert!(check_read(&g, 1, 10, &ok).is_ok());
        assert!(check_read(&g, 1, 1, &ok).is_err(), "over limit");
        assert!(check_read(&g, 0, 10, &[entry(2, b'p', 1, 16)]).is_err(), "non-followee");
        assert!(check_read(&g, 1, 10, &[b"user/000001|junk".to_vec()]).is_err(), "malformed");
    }
}

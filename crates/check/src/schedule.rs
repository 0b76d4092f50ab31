//! Replayable schedules: the serialized form of one explored execution.
//!
//! A schedule is a header (protocol, site count, vote plan, termination
//! rule) plus an ordered list of [`Step`]s — exactly the nondeterministic
//! choices the explorer made. Replaying the steps against a fresh
//! [`Runner`] in lockstep mode reproduces the execution bit-for-bit, which
//! is what makes shrunk counterexamples checkable artifacts instead of
//! prose: the corpus under `tests/corpus/` is replayed byte-for-byte in CI,
//! and `nbc simulate --schedule FILE` re-executes one interactively.
//!
//! The on-disk format is JSONL: the first line is the header object, every
//! following line one step object. Writing is deterministic (fixed field
//! order); parsing accepts any field order.

use std::fmt;

use nbc_engine::{channel_of, Channel, Runner};
use nbc_obs::json::{self, Value};
use nbc_simnet::NetEvent;

/// One scheduler choice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Deliver the head message of the `(src, dst)` link.
    Deliver {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
    },
    /// Lose the most recently sent in-flight message of the `(src, dst)`
    /// link. Dropping tails keeps every surviving message sequence a
    /// prefix of what was sent — the shape of the paper's non-atomic
    /// transition failure, where a crashing site sends only a prefix of a
    /// transition's messages.
    Drop {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
    },
    /// Deliver the failure detector's next notice to `observer`, which
    /// must report `crashed`.
    FailNotice {
        /// The site being informed.
        observer: usize,
        /// The site it learns has crashed.
        crashed: usize,
    },
    /// Deliver the detector's next notice to `observer`, which must
    /// report that `recovered` is back.
    RecoveryNotice {
        /// The site being informed.
        observer: usize,
        /// The site it learns has recovered.
        recovered: usize,
    },
    /// `observer` starts suspecting `peer` — the imperfect (timeout-based)
    /// detector's choice point, injected by the scheduler rather than by
    /// silence. The suspicion may be *false*: `peer` can be alive.
    Suspect {
        /// The suspecting site.
        observer: usize,
        /// The suspected site (possibly live — that is the point).
        peer: usize,
    },
    /// `observer` clears its suspicion of `peer` (evidence of life
    /// arrived). The revocation that perfect failure detection never has.
    Unsuspect {
        /// The site clearing its suspicion.
        observer: usize,
        /// The peer trusted again.
        peer: usize,
    },
    /// Crash a site (volatile state lost, synced WAL prefix survives).
    Crash {
        /// The crashing site.
        site: usize,
    },
    /// Restart a crashed site (WAL replay + recovery protocol).
    Recover {
        /// The restarting site.
        site: usize,
    },
    /// Partition the network into groups (`groups[i]` = site `i`'s group).
    Partition {
        /// Group assignment per site.
        groups: Vec<usize>,
    },
    /// Heal a partition.
    Heal,
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Deliver { src, dst } => write!(f, "deliver {src}->{dst}"),
            Step::Drop { src, dst } => write!(f, "drop {src}->{dst}"),
            Step::FailNotice { observer, crashed } => {
                write!(f, "site{observer} learns site{crashed} crashed")
            }
            Step::RecoveryNotice { observer, recovered } => {
                write!(f, "site{observer} learns site{recovered} recovered")
            }
            Step::Suspect { observer, peer } => {
                write!(f, "site{observer} suspects site{peer}")
            }
            Step::Unsuspect { observer, peer } => {
                write!(f, "site{observer} unsuspects site{peer}")
            }
            Step::Crash { site } => write!(f, "crash site{site}"),
            Step::Recover { site } => write!(f, "recover site{site}"),
            Step::Partition { groups } => write!(f, "partition {groups:?}"),
            Step::Heal => write!(f, "heal"),
        }
    }
}

/// A complete replayable execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Protocol name (a catalog name or spec path, as the CLI resolves it).
    pub protocol: String,
    /// Site count.
    pub n: usize,
    /// Vote plan (`votes[i]` = site `i` votes yes).
    pub votes: Vec<bool>,
    /// Termination rule name (`skeen` | `cooperative` | `naive` | `quorum`).
    pub rule: String,
    /// The choices, in order.
    pub steps: Vec<Step>,
}

/// Why a step could not be applied during strict replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// Index of the failing step.
    pub step: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step {}: {}", self.step, self.reason)
    }
}

/// Head (earliest-sent pending) event of one FIFO channel, if any.
pub fn channel_head(runner: &Runner<'_>, ch: Channel) -> Option<(u64, NetEvent<nbc_engine::Wire>)> {
    runner.pending_events().into_iter().find(|(_, ev)| channel_of(ev) == ch)
}

/// Tail (most recently sent pending) event of one FIFO channel, if any.
pub fn channel_tail(runner: &Runner<'_>, ch: Channel) -> Option<(u64, NetEvent<nbc_engine::Wire>)> {
    runner.pending_events().into_iter().rfind(|(_, ev)| channel_of(ev) == ch)
}

/// Apply one step to a runner. Returns `Err` with the reason when the step
/// is not applicable in the current state (nothing pending on the channel,
/// site already down, head event mismatch, ...). The runner is unchanged
/// on error.
pub fn apply_step(runner: &mut Runner<'_>, step: &Step) -> Result<(), String> {
    match step {
        Step::Deliver { src, dst } => {
            let (seq, _) = channel_head(runner, Channel::Link(*src, *dst))
                .ok_or_else(|| format!("nothing in flight on link {src}->{dst}"))?;
            runner.fire_scheduled(seq);
            Ok(())
        }
        Step::Drop { src, dst } => {
            let (seq, _) = channel_tail(runner, Channel::Link(*src, *dst))
                .ok_or_else(|| format!("nothing in flight on link {src}->{dst}"))?;
            runner.drop_scheduled(seq);
            Ok(())
        }
        Step::FailNotice { observer, crashed } => {
            let (seq, ev) = channel_head(runner, Channel::Detector(*observer))
                .ok_or_else(|| format!("no detector notice pending for site{observer}"))?;
            match ev {
                NetEvent::FailureNotice { crashed: c, .. } if c == *crashed => {
                    runner.fire_scheduled(seq);
                    Ok(())
                }
                other => Err(format!(
                    "detector head for site{observer} is {other:?}, not failure of site{crashed}"
                )),
            }
        }
        Step::RecoveryNotice { observer, recovered } => {
            let (seq, ev) = channel_head(runner, Channel::Detector(*observer))
                .ok_or_else(|| format!("no detector notice pending for site{observer}"))?;
            match ev {
                NetEvent::RecoveryNotice { recovered: r, .. } if r == *recovered => {
                    runner.fire_scheduled(seq);
                    Ok(())
                }
                other => Err(format!(
                    "detector head for site{observer} is {other:?}, not recovery of site{recovered}"
                )),
            }
        }
        Step::Suspect { observer, peer } => {
            if observer == peer {
                return Err(format!("site{observer} cannot suspect itself"));
            }
            if !runner.sites()[*observer].is_up() {
                return Err(format!("site{observer} is down and cannot suspect"));
            }
            if runner.sites()[*observer].suspects.contains(peer) {
                return Err(format!("site{observer} already suspects site{peer}"));
            }
            runner.suspect_now(*observer, *peer);
            Ok(())
        }
        Step::Unsuspect { observer, peer } => {
            if !runner.sites()[*observer].is_up() {
                return Err(format!("site{observer} is down and cannot unsuspect"));
            }
            if !runner.sites()[*observer].suspects.contains(peer) {
                return Err(format!("site{observer} does not suspect site{peer}"));
            }
            runner.unsuspect_now(*observer, *peer);
            Ok(())
        }
        Step::Crash { site } => {
            if !runner.sites()[*site].is_up() {
                return Err(format!("site{site} is already down"));
            }
            runner.crash_now(*site);
            Ok(())
        }
        Step::Recover { site } => {
            if runner.sites()[*site].is_up() {
                return Err(format!("site{site} is not down"));
            }
            runner.recover_now(*site);
            Ok(())
        }
        Step::Partition { groups } => {
            if groups.len() != runner.sites().len() {
                return Err(format!(
                    "partition groups must cover all {} sites",
                    runner.sites().len()
                ));
            }
            runner.partition_now(groups.clone());
            Ok(())
        }
        Step::Heal => {
            runner.heal_now();
            Ok(())
        }
    }
}

/// Replay `steps` strictly: every step must apply. Returns the index and
/// reason of the first inapplicable step.
pub fn replay_strict(runner: &mut Runner<'_>, steps: &[Step]) -> Result<(), ReplayError> {
    for (i, step) in steps.iter().enumerate() {
        apply_step(runner, step).map_err(|reason| ReplayError { step: i, reason })?;
    }
    Ok(())
}

/// Replay `steps` leniently: inapplicable steps are skipped. Returns the
/// steps that actually applied (in order). The shrinker uses this to
/// evaluate candidate schedules whose removed steps invalidate later ones.
pub fn replay_lenient(runner: &mut Runner<'_>, steps: &[Step]) -> Vec<Step> {
    let mut applied = Vec::with_capacity(steps.len());
    for step in steps {
        if apply_step(runner, step).is_ok() {
            applied.push(step.clone());
        }
    }
    applied
}

// ----------------------------------------------------------------------
// JSONL encoding
// ----------------------------------------------------------------------

impl Schedule {
    /// Serialize to JSONL: header line + one line per step. Deterministic
    /// byte-for-byte (fixed field order, no whitespace variance).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let votes: Vec<&str> =
            self.votes.iter().map(|v| if *v { "true" } else { "false" }).collect();
        out.push_str(&format!(
            "{{\"schedule\":\"nbc-check/v1\",\"protocol\":{},\"n\":{},\"votes\":[{}],\"rule\":{}}}\n",
            json::string(&self.protocol),
            self.n,
            votes.join(","),
            json::string(&self.rule),
        ));
        for s in &self.steps {
            out.push_str(&step_json(s));
            out.push('\n');
        }
        out
    }

    /// Parse the JSONL form. Accepts any object-field order; rejects
    /// unknown step kinds, missing fields, negative or non-integer ids, a
    /// vote plan whose length is not `n`, and site ids outside `0..n`,
    /// with a line-numbered error — so a parsed schedule never indexes
    /// past the engine's site table when replayed.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
        let (_, header) = lines.next().ok_or("empty schedule")?;
        let h = json::parse(header).map_err(|e| format!("line 1: {e}"))?;
        let text_field = |f: &str| h.get(f).and_then(Value::as_str);
        if text_field("schedule") != Some("nbc-check/v1") {
            return Err("line 1: not an nbc-check/v1 schedule header".into());
        }
        let protocol = text_field("protocol").ok_or("line 1: missing protocol")?.to_string();
        let n = uint(&h, "n").map_err(|e| format!("line 1: {e}"))?;
        let votes = array(&h, "votes", Value::as_bool).ok_or("line 1: missing votes")?;
        if votes.len() != n {
            return Err(format!("line 1: votes names {} sites, n is {n}", votes.len()));
        }
        let rule = text_field("rule").ok_or("line 1: missing rule")?.to_string();
        let mut steps = Vec::new();
        for (ix, line) in lines {
            let step = json::parse(line)
                .and_then(|o| parse_step(&o))
                .and_then(|step| check_sites(&step, n).map(|()| step))
                .map_err(|e| format!("line {}: {e}", ix + 1))?;
            steps.push(step);
        }
        Ok(Self { protocol, n, votes, rule, steps })
    }
}

fn step_json(s: &Step) -> String {
    match s {
        Step::Deliver { src, dst } => {
            format!("{{\"step\":\"deliver\",\"src\":{src},\"dst\":{dst}}}")
        }
        Step::Drop { src, dst } => format!("{{\"step\":\"drop\",\"src\":{src},\"dst\":{dst}}}"),
        Step::FailNotice { observer, crashed } => {
            format!("{{\"step\":\"fail-notice\",\"observer\":{observer},\"crashed\":{crashed}}}")
        }
        Step::RecoveryNotice { observer, recovered } => {
            format!("{{\"step\":\"recovery-notice\",\"observer\":{observer},\"recovered\":{recovered}}}")
        }
        Step::Suspect { observer, peer } => {
            format!("{{\"step\":\"suspect\",\"observer\":{observer},\"peer\":{peer}}}")
        }
        Step::Unsuspect { observer, peer } => {
            format!("{{\"step\":\"unsuspect\",\"observer\":{observer},\"peer\":{peer}}}")
        }
        Step::Crash { site } => format!("{{\"step\":\"crash\",\"site\":{site}}}"),
        Step::Recover { site } => format!("{{\"step\":\"recover\",\"site\":{site}}}"),
        Step::Partition { groups } => {
            let g: Vec<String> = groups.iter().map(|x| x.to_string()).collect();
            format!("{{\"step\":\"partition\",\"groups\":[{}]}}", g.join(","))
        }
        Step::Heal => "{\"step\":\"heal\"}".to_string(),
    }
}

fn parse_step(o: &Value) -> Result<Step, String> {
    let kind = o.get("step").and_then(Value::as_str).ok_or("missing step kind")?;
    let num = |f: &str| uint(o, f);
    match kind {
        "deliver" => Ok(Step::Deliver { src: num("src")?, dst: num("dst")? }),
        "drop" => Ok(Step::Drop { src: num("src")?, dst: num("dst")? }),
        "fail-notice" => {
            Ok(Step::FailNotice { observer: num("observer")?, crashed: num("crashed")? })
        }
        "recovery-notice" => {
            Ok(Step::RecoveryNotice { observer: num("observer")?, recovered: num("recovered")? })
        }
        "suspect" => Ok(Step::Suspect { observer: num("observer")?, peer: num("peer")? }),
        "unsuspect" => Ok(Step::Unsuspect { observer: num("observer")?, peer: num("peer")? }),
        "crash" => Ok(Step::Crash { site: num("site")? }),
        "recover" => Ok(Step::Recover { site: num("site")? }),
        "partition" => {
            Ok(Step::Partition { groups: array(o, "groups", as_usize).ok_or("missing groups")? })
        }
        "heal" => Ok(Step::Heal),
        other => Err(format!("unknown step kind {other:?}")),
    }
}

/// A non-negative integer field.
fn uint(o: &Value, field: &str) -> Result<usize, String> {
    let v = o.get(field).ok_or(format!("missing {field}"))?;
    as_usize(v).ok_or(format!("{field} must be a non-negative integer"))
}

fn as_usize(v: &Value) -> Option<usize> {
    v.as_u64().and_then(|x| usize::try_from(x).ok())
}

/// An array field whose every element `elem` accepts.
fn array<T>(o: &Value, field: &str, elem: impl Fn(&Value) -> Option<T>) -> Option<Vec<T>> {
    match o.get(field)? {
        Value::Arr(items) => items.iter().map(elem).collect(),
        _ => None,
    }
}

/// Reject a step naming a site outside `0..n`.
fn check_sites(step: &Step, n: usize) -> Result<(), String> {
    let ids = match *step {
        Step::Deliver { src, dst } | Step::Drop { src, dst } => [src, dst],
        Step::FailNotice { observer, crashed: peer }
        | Step::RecoveryNotice { observer, recovered: peer }
        | Step::Suspect { observer, peer }
        | Step::Unsuspect { observer, peer } => [observer, peer],
        Step::Crash { site } | Step::Recover { site } => [site, site],
        Step::Partition { .. } | Step::Heal => return Ok(()),
    };
    match ids.into_iter().find(|&id| id >= n) {
        Some(id) => Err(format!("site {id} out of range for n={n}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        Schedule {
            protocol: "central-2pc".into(),
            n: 3,
            votes: vec![true, true, false],
            rule: "skeen".into(),
            steps: vec![
                Step::Deliver { src: 0, dst: 1 },
                Step::Suspect { observer: 1, peer: 0 },
                Step::Unsuspect { observer: 1, peer: 0 },
                Step::Crash { site: 0 },
                Step::FailNotice { observer: 1, crashed: 0 },
                Step::Drop { src: 0, dst: 2 },
                Step::Recover { site: 0 },
                Step::RecoveryNotice { observer: 2, recovered: 0 },
                Step::Partition { groups: vec![0, 0, 1] },
                Step::Heal,
            ],
        }
    }

    #[test]
    fn jsonl_round_trips_byte_for_byte() {
        let s = sample();
        let text = s.to_jsonl();
        let parsed = Schedule::from_jsonl(&text).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.to_jsonl(), text);
    }

    #[test]
    fn parser_rejects_junk() {
        assert!(Schedule::from_jsonl("").is_err());
        assert!(Schedule::from_jsonl("{\"schedule\":\"other\"}").is_err());
        let mut text = sample().to_jsonl();
        text.push_str("{\"step\":\"warp\"}\n");
        let err = Schedule::from_jsonl(&text).unwrap_err();
        assert!(err.contains("unknown step kind"), "{err}");
    }

    #[test]
    fn parser_rejects_bad_ids_and_vote_plans() {
        let header = sample().to_jsonl().lines().next().unwrap().to_string();
        for (step, want) in [
            ("{\"step\":\"crash\",\"site\":-1}", "non-negative integer"),
            ("{\"step\":\"crash\",\"site\":1.5}", "non-negative integer"),
            ("{\"step\":\"recover\",\"site\":3}", "out of range"),
            ("{\"step\":\"suspect\",\"observer\":0,\"peer\":9}", "out of range"),
        ] {
            let err = Schedule::from_jsonl(&format!("{header}\n{step}\n")).unwrap_err();
            assert!(err.starts_with("line 2: ") && err.contains(want), "{step}: {err}");
        }
        let short = header.replace("[true,true,false]", "[true,true]");
        let err = Schedule::from_jsonl(&short).unwrap_err();
        assert!(err.contains("votes names 2 sites, n is 3"), "{err}");
    }

    #[test]
    fn control_characters_are_escaped_and_round_trip() {
        let s = Schedule { protocol: "spec\twith\u{1}ctl".into(), ..sample() };
        let text = s.to_jsonl();
        assert!(text
            .starts_with("{\"schedule\":\"nbc-check/v1\",\"protocol\":\"spec\\twith\\u0001ctl\""));
        assert_eq!(Schedule::from_jsonl(&text).unwrap(), s);
    }

    #[test]
    fn field_order_is_flexible() {
        let text = "{\"n\":2,\"votes\":[true,true],\"rule\":\"skeen\",\"protocol\":\"p\",\"schedule\":\"nbc-check/v1\"}\n{\"dst\":1,\"src\":0,\"step\":\"deliver\"}\n";
        let s = Schedule::from_jsonl(text).unwrap();
        assert_eq!(s.n, 2);
        assert_eq!(s.steps, vec![Step::Deliver { src: 0, dst: 1 }]);
    }
}

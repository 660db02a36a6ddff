//! Correctness checks. Every workload reports its outputs through these
//! functions, so the tests below show that each check can fail.

use omg_serve::{DrainedServe, ServeStats};

/// The program's fingerprints must equal the oracle's bit for bit.
pub fn fingerprints(program: &[Vec<i8>], oracle: &[Vec<i8>]) -> Result<(), String> {
    if program.len() != oracle.len() {
        return Err(format!(
            "{} program fingerprints for {} inputs",
            program.len(),
            oracle.len()
        ));
    }
    for (i, (got, want)) in program.iter().zip(oracle).enumerate() {
        if let Some(byte) = (0..got.len().max(want.len())).find(|&b| got.get(b) != want.get(b)) {
            return Err(format!(
                "input {i}: fingerprint differs from the oracle at byte {byte}"
            ));
        }
    }
    Ok(())
}

/// One answer must equal the oracle's class for its utterance.
pub fn answer(what: &str, input: usize, got: usize, oracle: &[usize]) -> Result<(), String> {
    match oracle.get(input) {
        Some(&want) if want == got => Ok(()),
        Some(&want) => Err(format!(
            "{what}: input {input} answered class {got}, oracle says {want}"
        )),
        None => Err(format!("{what}: input {input} has no oracle class")),
    }
}

/// The benchmark's own count of what it did to a fleet.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Ledger {
    /// Calls to `submit`.
    pub submitted: u64,
    /// Answers received.
    pub answered: u64,
    /// Scripted worker kills (each resolves with `WorkerPanicked`).
    pub killed: u64,
}

/// What a drained fleet reports about itself, reduced to what is checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Books {
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    pub failed: u64,
    pub shed: u64,
    pub discarded: u64,
    pub restarts: u64,
    pub quarantined: u64,
    pub served_per_worker: Vec<u64>,
    pub scrubbed: Vec<Option<bool>>,
    pub worker_errors: usize,
}

impl Books {
    pub fn of(drained: &DrainedServe) -> Books {
        let s: &ServeStats = &drained.stats;
        Books {
            submitted: s.submitted,
            completed: s.completed,
            rejected: s.rejected,
            failed: s.failed,
            shed: s.shed,
            discarded: s.discarded,
            restarts: s.restarts,
            quarantined: s.quarantined,
            served_per_worker: drained.served_per_worker.clone(),
            scrubbed: drained
                .devices
                .iter()
                .map(|d| d.interpreter_arena_scrubbed())
                .collect(),
            worker_errors: drained.worker_errors.len(),
        }
    }
}

/// Accounting from two sides and the security properties at drain. A
/// scripted kill must leave a restart behind and nothing quarantined.
pub fn drained(books: &Books, own: &Ledger, workers: usize) -> Vec<String> {
    let mut errors = Vec::new();
    let b = books;
    if b.submitted != own.submitted {
        errors.push(format!(
            "fleet counted {} submissions, benchmark made {}",
            b.submitted, own.submitted
        ));
    }
    if b.completed != own.answered {
        errors.push(format!(
            "fleet counted {} completions, benchmark received {}",
            b.completed, own.answered
        ));
    }
    if b.completed + b.rejected + b.failed + b.shed + b.discarded != b.submitted {
        errors.push(format!("accounting identity broken: {b:?}"));
    }
    let served: u64 = b.served_per_worker.iter().sum();
    if served != own.answered {
        errors.push(format!(
            "served_per_worker sums to {served}, benchmark received {}",
            own.answered
        ));
    }
    if b.discarded != own.killed || b.restarts != own.killed {
        errors.push(format!(
            "{} kills left {} discards and {} restarts",
            own.killed, b.discarded, b.restarts
        ));
    }
    if b.quarantined != 0 || b.worker_errors != 0 {
        errors.push(format!(
            "{} quarantined, {} worker errors",
            b.quarantined, b.worker_errors
        ));
    }
    if b.scrubbed.len() != workers {
        errors.push(format!(
            "fleet returned {} devices, expected {workers}",
            b.scrubbed.len()
        ));
    }
    if b.scrubbed.iter().any(|s| *s != Some(true)) {
        errors.push(format!("arena not scrubbed at drain: {:?}", b.scrubbed));
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balanced() -> (Books, Ledger) {
        let books = Books {
            submitted: 12,
            completed: 10,
            rejected: 0,
            failed: 0,
            shed: 0,
            discarded: 2,
            restarts: 2,
            quarantined: 0,
            served_per_worker: vec![6, 4],
            scrubbed: vec![Some(true), Some(true)],
            worker_errors: 0,
        };
        let own = Ledger {
            submitted: 12,
            answered: 10,
            killed: 2,
        };
        (books, own)
    }

    #[test]
    fn balanced_books_pass() {
        let (books, own) = balanced();
        assert!(drained(&books, &own, 2).is_empty());
    }

    #[test]
    fn a_miscounted_answer_is_reported() {
        let (books, mut own) = balanced();
        own.answered += 1;
        assert!(!drained(&books, &own, 2).is_empty());
        let (mut books, own) = balanced();
        books.served_per_worker[1] -= 1;
        assert!(!drained(&books, &own, 2).is_empty());
    }

    #[test]
    fn an_unscrubbed_arena_or_missing_restart_is_reported() {
        let (mut books, own) = balanced();
        books.scrubbed[0] = Some(false);
        assert!(!drained(&books, &own, 2).is_empty());
        let (mut books, own) = balanced();
        books.restarts = 1;
        assert!(!drained(&books, &own, 2).is_empty());
    }

    #[test]
    fn a_flipped_answer_is_reported() {
        let oracle = [3, 7, 5];
        assert!(answer("q", 1, 7, &oracle).is_ok());
        assert!(answer("q", 1, 6, &oracle).is_err());
        assert!(answer("q", 3, 7, &oracle).is_err());
    }

    #[test]
    fn a_flipped_fingerprint_byte_is_reported() {
        let oracle = vec![vec![1i8, 2, 3], vec![4, 5, 6]];
        let mut program = oracle.clone();
        assert!(fingerprints(&program, &oracle).is_ok());
        program[1][2] ^= 1;
        let err = fingerprints(&program, &oracle).unwrap_err();
        assert!(err.contains("byte 2"), "{err}");
    }
}

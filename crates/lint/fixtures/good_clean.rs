// lint-fixture: crates/mpc/src/compare.rs
//! Known-good: a hot-path module exercising every escape hatch and
//! exemption correctly — must produce zero findings.

pub struct EdaBit {
    arith: Vec<u64>,
}

// lint: debug-ok(redacted: prints only the share count, never the words)
impl std::fmt::Debug for EdaBit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EdaBit({} shares)", self.arith.len())
    }
}

/// Invariant panic, justified and allowlisted.
pub fn material(x: Option<u64>) -> u64 {
    // lint: panic-ok(dealer preprocessing guarantees material exists)
    x.expect("preprocessing material")
}

/// Branching on public values is fine.
pub fn routing(parties: usize) -> u64 {
    let share = additive_shares(parties);
    let opened = reveal(share);
    if parties < 2 {
        return 0;
    }
    drop(opened);
    1
}

fn reveal(_s: Vec<u64>) -> u64 {
    0
}

/// The one intentional reveal: folding the broadcast bit shares *is* the
/// protocol's opened output, declassified by the marker.
pub fn opened_bit(mesh: &mut Mesh, words: &[Vec<u64>]) -> bool {
    let recv = mesh.broadcast_words(MsgKind::BitOpen, words);
    // lint: public-ok(the XOR-fold of all broadcast bit shares is the opened comparison bit)
    let bit = recv.iter().fold(0u64, |acc, w| acc ^ w[0][0]);
    bit == 1
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_print_and_unwrap() {
        let v: Option<u64> = Some(3);
        println!("value {:?}", v.unwrap());
        if v.unwrap() == 0 {
            panic!("unreachable");
        }
    }
}

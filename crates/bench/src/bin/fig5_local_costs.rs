//! Figure 5 — unitary local costs for one set of means.
//!
//! Measures, on this machine, the time to (a) encrypt one full set of
//! means, (b) homomorphically add two sets, (c) threshold-decrypt one set,
//! and (d) the bandwidth needed to transfer one set — for the paper's
//! setting of 50 means, 20 measures per mean and a 1024-bit key.
//!
//! Usage:
//!   fig5_local_costs [--means 50] [--measures 20] [--key-bits 1024]
//!                    [--repetitions 3] [--shares 16] [--threshold 4]
//!
//! `--repetitions` ≥ 1, 1 ≤ `--threshold` ≤ `--shares` and `--key-bits` ≥
//! 20; any other value exits 2 with a message before a key is drawn.

use std::time::Instant;

use chiaroscuro_bench::args::usage_error;
use chiaroscuro_bench::{Args, Table};
use chiaroscuro_crypto::encoding::FixedPointEncoder;
use chiaroscuro_crypto::keys::KeyPair;
use chiaroscuro_crypto::scheme::Ciphertext;
use chiaroscuro_crypto::threshold::{combine, PartialDecryption, ThresholdDealer};
use chiaroscuro_crypto::wire::MeansWireModel;
use chiaroscuro_timeseries::stats::MinMaxAvg;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let args = Args::from_env();
    let means = args.get("means", 50usize);
    let measures = args.get("measures", 20usize);
    let key_bits = args.get("key-bits", 1024u64);
    let repetitions = args.get("repetitions", 3usize);
    let shares = args.get("shares", 16usize);
    let threshold = args.get("threshold", 4usize);
    if repetitions == 0 {
        usage_error("invalid --repetitions 0: expected at least 1");
    }
    if !(1..=shares).contains(&threshold) {
        usage_error(&format!("invalid --threshold {threshold}: expected 1 ≤ threshold ≤ shares ({shares})"));
    }
    // Two primes of ⌊key-bits/2⌋ bits must make n/2 exceed 80 000, the
    // largest value drawn below (80 at three decimals).
    if key_bits < 20 {
        usage_error(&format!("invalid --key-bits {key_bits}: expected at least 20"));
    }

    eprintln!("# Figure 5 — {means} means x {measures} measures, {key_bits}-bit key, {repetitions} repetitions");
    eprintln!("# (threshold decryption with {shares} shares, tau = {threshold}; the paper assigns one share per device)");

    let mut rng = StdRng::seed_from_u64(42);
    let keypair = KeyPair::generate(key_bits, 1, &mut rng);
    let dealer = ThresholdDealer::new(&keypair, shares, threshold);
    let key_shares = dealer.deal(&mut rng);
    let encoder = FixedPointEncoder::new(3);
    let entries = means * (measures + 1);

    let mut encrypt_times = Vec::new();
    let mut add_times = Vec::new();
    let mut decrypt_times = Vec::new();

    for _ in 0..repetitions {
        // Encrypt one set of means.
        let values: Vec<f64> = (0..entries).map(|_| rng.gen_range(0.0..80.0)).collect();
        let start = Instant::now();
        let set_a: Vec<Ciphertext> = values
            .iter()
            .map(|&v| keypair.public.encrypt(&encoder.encode(v, &keypair.public), &mut rng))
            .collect();
        encrypt_times.push(start.elapsed().as_secs_f64());

        let set_b: Vec<Ciphertext> = (0..entries).map(|_| keypair.public.encrypt_zero(&mut rng)).collect();

        // Homomorphically add two sets.
        let start = Instant::now();
        let summed: Vec<Ciphertext> = set_a.iter().zip(set_b.iter()).map(|(a, b)| keypair.public.add(a, b)).collect();
        add_times.push(start.elapsed().as_secs_f64());

        // Threshold-decrypt one set.
        let start = Instant::now();
        for ciphertext in &summed {
            let partials: Vec<PartialDecryption> = key_shares[..threshold]
                .iter()
                .map(|s| s.partial_decrypt(&keypair.public, ciphertext))
                .collect();
            let _ = combine(&keypair.public, &partials, threshold, shares).expect("decryption");
        }
        decrypt_times.push(start.elapsed().as_secs_f64());
    }

    let mut table = Table::new(
        "Fig 5(a) — time to process one set of means (seconds)",
        &["operation", "MIN", "MAX", "AVG"],
    );
    for (name, samples) in [("Encrypt", &encrypt_times), ("Add", &add_times), ("Decrypt", &decrypt_times)] {
        let summary = MinMaxAvg::of(samples).expect("non-empty samples");
        table.row(&[
            name.to_string(),
            format!("{:.3}", summary.min),
            format!("{:.3}", summary.max),
            format!("{:.3}", summary.avg),
        ]);
    }
    table.print();

    let model = MeansWireModel::new(&keypair.public, means, measures);
    let mut bandwidth = Table::new("Fig 5(b) — bandwidth for transferring one set of means", &["quantity", "value"]);
    bandwidth.row(&["ciphertexts per set".to_string(), model.ciphertexts_per_set().to_string()]);
    bandwidth.row(&["bytes per ciphertext".to_string(), model.ciphertext_bytes.to_string()]);
    bandwidth.row(&["set size (kB)".to_string(), format!("{:.1}", model.set_kilobytes())]);
    bandwidth.row(&[
        "sum exchange (kB, both directions)".to_string(),
        format!("{:.1}", model.sum_exchange_bytes() as f64 / 1_000.0),
    ]);
    bandwidth.row(&[
        "decryption exchange (kB)".to_string(),
        format!("{:.1}", model.decryption_exchange_bytes() as f64 / 1_000.0),
    ]);
    bandwidth.row(&[
        "transfer time at 1 Mb/s (s)".to_string(),
        format!("{:.1}", model.set_bytes() as f64 * 8.0 / 1_000_000.0),
    ]);
    bandwidth.print();
}

//! Figure 10: TriforceAFL-style VM-cloning fuzzing throughput, fork vs
//! On-demand-fork.
//!
//! Methodology (paper §5.3.4): the QEMU process (here, the host process
//! owning the guest VM's memory) runs under a fork server; each input is a
//! guest program fuzzing the guest kernel's syscalls. The QEMU process is
//! small (~188 MiB in the paper), so the gain is smaller than for the
//! 1 GiB database target — but still substantial.
//!
//! Paper reference: 91 execs/s with fork vs 145 execs/s with
//! On-demand-fork (+59.3%).

use std::time::Duration;

use odf_bench as bench;
use odf_core::ForkPolicy;
use odf_fuzz::targets::GuestVmTarget;
use odf_fuzz::{FuzzConfig, Fuzzer, Target};
use odf_guestvm::GuestVm;

fn campaign(policy: ForkPolicy, guest_mem: u64) -> odf_fuzz::CampaignStats {
    let kernel = bench::kernel_for(guest_mem + 128 * bench::MIB);
    let master = kernel.spawn().expect("spawn");
    let vm = GuestVm::install(&master, guest_mem).expect("install");
    // Pre-touch guest memory so the host image is populated, as a booted
    // QEMU's would be.
    vm.prefault(&master).expect("prefault");
    // ~2000 driver iterations (~8k emulated instructions) per input: the
    // fixed QEMU-emulation work of the TriforceAFL driver.
    let target = GuestVmTarget::new(vm, 2_000).with_driver_iterations(2_000);

    let seeds: Vec<Vec<u8>> = vec![target.dictionary().concat()];
    let mut fuzzer = Fuzzer::new(
        &master,
        &target,
        FuzzConfig {
            policy,
            max_input_len: 256,
            seed: 21,
            ..FuzzConfig::default()
        },
        &seeds,
    )
    .expect("fuzzer");
    fuzzer
        .fuzz_for(bench::campaign_duration(15), Duration::from_secs(1))
        .expect("campaign")
}

fn main() {
    bench::banner(
        "Figure 10",
        "TriforceAFL VM-cloning throughput, fork vs on-demand-fork",
    );
    let guest_mem = bench::scaled(188 * bench::MIB);

    let classic = campaign(ForkPolicy::Classic, guest_mem);
    let odf = campaign(ForkPolicy::OnDemand, guest_mem);

    let mut report = bench::Report::new(
        "fig10_triforce",
        "policy execs mean_execs_per_s crashes hangs edges",
    );
    for (name, s) in [("fork", &classic), ("on-demand-fork", &odf)] {
        report.row(vec![
            name.into(),
            s.execs.into(),
            bench::num(s.mean_execs_per_sec, 1),
            s.crashes.into(),
            s.hangs.into(),
            s.edges.into(),
        ]);
    }
    report.emit();
    println!(
        "Throughput improvement: {:+.1}% with guest memory {} (paper: +59.3% \
         at 188 MiB)",
        100.0 * (odf.mean_execs_per_sec - classic.mean_execs_per_sec)
            / classic.mean_execs_per_sec.max(1e-9),
        bench::fmt_bytes(guest_mem)
    );
    println!("\nThroughput timeline (execs/s per 1 s bucket):");
    bench::timeline("fig10_triforce_timeline", &classic.series, &odf.series).emit();
}

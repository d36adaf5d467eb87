//! `tt-dist-serve` — the multi-tenant solve daemon.
//!
//! Spawns one worker fleet, binds a Unix-domain socket and serves
//! concurrent DMRG jobs until a client sends `Shutdown` (or the process
//! is signalled). Workers are re-execs of this same binary
//! ([`tt_dist::SpawnSpec::SelfExec`]), so the daemon is self-contained.
//!
//! ```text
//! tt-dist-serve [--socket PATH] [--workers P] [--nodes N]
//!               [--concurrent J] [--queue Q] [--retention-mb MB]
//! ```

fn main() {
    #[cfg(unix)]
    run();
    #[cfg(not(unix))]
    {
        eprintln!("tt-dist-serve requires a unix platform");
        std::process::exit(1);
    }
}

#[cfg(unix)]
fn run() {
    // when re-executed as a fleet worker, serve kernels and exit
    tt_dist::maybe_serve();

    use dmrg::DmrgSolveRunner;
    use std::sync::Arc;
    use tt_dist::service::{Service, ServiceConfig};
    use tt_dist::SpawnSpec;

    let mut socket = std::env::temp_dir().join("tt-dist-serve.sock");
    let mut workers = 3usize;
    let mut nodes = 1usize;
    let mut concurrent = 2usize;
    let mut queue = 16usize;
    let mut retention_mb = 256u64;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("tt-dist-serve: {what} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--socket" => socket = value("--socket").into(),
            "--workers" => workers = parse(&value("--workers"), "--workers"),
            "--nodes" => nodes = parse(&value("--nodes"), "--nodes"),
            "--concurrent" => concurrent = parse(&value("--concurrent"), "--concurrent"),
            "--queue" => queue = parse(&value("--queue"), "--queue"),
            "--retention-mb" => retention_mb = parse(&value("--retention-mb"), "--retention-mb"),
            "--help" | "-h" => {
                println!(
                    "tt-dist-serve [--socket PATH] [--workers P] [--nodes N] \
                     [--concurrent J] [--queue Q] [--retention-mb MB]"
                );
                return;
            }
            other => {
                eprintln!("tt-dist-serve: unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
    }

    let mut cfg = ServiceConfig::new(&socket, workers);
    cfg.nodes = nodes;
    cfg.max_concurrent = concurrent;
    cfg.max_queued = queue;
    cfg.retention_bytes = retention_mb << 20;
    cfg.spawn = SpawnSpec::SelfExec(vec![]);

    let service = match Service::start(cfg, Some(Arc::new(DmrgSolveRunner))) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tt-dist-serve: failed to start: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "tt-dist-serve: listening on {} ({workers} workers, {concurrent} concurrent jobs)",
        socket.display()
    );
    service.wait();
    eprintln!("tt-dist-serve: shut down");
}

#[cfg(unix)]
fn parse<T: std::str::FromStr>(s: &str, what: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("tt-dist-serve: bad value {s:?} for {what}");
        std::process::exit(2);
    })
}

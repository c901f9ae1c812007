//! `dnnip-serve` — the long-lived NDJSON test-generation service.
//!
//! ```text
//! dnnip-serve [--workers N] [--queue-depth N] [--deadline-ms MS]
//!             [--max-batch N] [--batch-window-ms MS] [--socket PATH]
//! ```
//!
//! By default the service reads one JSON request per line from **stdin**
//! and writes one JSON response per line to **stdout**, exiting cleanly
//! after EOF or a `{"op":"shutdown"}` request (each drains in-flight work
//! first). With `--socket PATH` it listens on a Unix domain socket instead,
//! serving connections sequentially with the same engine — and the same
//! warm caches — until a client sends `shutdown`.
//!
//! The persistent cache tier is configured exactly like the experiment
//! binaries: `DNNIP_CACHE_DIR`, `DNNIP_CACHE_PERSIST`,
//! `DNNIP_CACHE_MAX_BYTES`.

use std::io::{BufReader, Write};
use std::process::ExitCode;
use std::sync::mpsc;

use dnnip_serve::{run_stdio, serve_lines, shutdown_response, Engine, EngineConfig};

struct Args {
    config: EngineConfig,
    socket: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut config = EngineConfig::default();
    let mut socket = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--queue-depth" => {
                config.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|e| format!("--queue-depth: {e}"))?;
            }
            "--deadline-ms" => {
                config.default_deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                );
            }
            "--max-batch" => {
                config.max_batch = value("--max-batch")?
                    .parse()
                    .map_err(|e| format!("--max-batch: {e}"))?;
            }
            "--batch-window-ms" => {
                config.batch_window_ms = value("--batch-window-ms")?
                    .parse()
                    .map_err(|e| format!("--batch-window-ms: {e}"))?;
            }
            "--socket" => socket = Some(value("--socket")?.into()),
            "--help" | "-h" => {
                return Err("usage: dnnip-serve [--workers N] [--queue-depth N] \
                     [--deadline-ms MS] [--max-batch N] [--batch-window-ms MS] \
                     [--socket PATH]"
                    .to_string())
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args { config, socket })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let engine = Engine::from_env(args.config);
    let result = match args.socket {
        None => {
            let stdin = std::io::stdin();
            // `StdoutLock` is not `Send`; the unlocked handle is, and the
            // single writer thread keeps lines atomic anyway.
            let mut stdout = std::io::stdout();
            run_stdio(engine, stdin.lock(), &mut stdout)
        }
        Some(path) => serve_socket(engine, &path),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dnnip-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Serve connections on a Unix domain socket, sequentially, sharing one
/// engine (and its caches) across them. A `shutdown` request from any
/// client drains the engine and stops the listener.
fn serve_socket(engine: Engine, path: &std::path::Path) -> std::io::Result<()> {
    // A previous unclean exit leaves the socket file behind; rebinding
    // requires removing it first.
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    let mut engine = Some(engine);
    for stream in listener.incoming() {
        let stream = stream?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut write_stream = stream;
        let (out_tx, out_rx) = mpsc::channel::<String>();
        // Per-connection writer: client disconnects mid-response are not
        // errors, the remaining responses just go nowhere.
        let writer = std::thread::spawn(move || {
            for line in out_rx {
                if writeln!(write_stream, "{line}").is_err() {
                    break;
                }
                let _ = write_stream.flush();
            }
        });
        let active = engine.as_ref().expect("engine alive while accepting");
        // A read error ends this connection like EOF; the listener goes on.
        let shutdown_id = serve_lines(active, reader, &out_tx).unwrap_or(None);
        if let Some(id) = shutdown_id {
            engine.take().expect("engine alive at shutdown").drain();
            let _ = out_tx.send(shutdown_response(&id));
            drop(out_tx);
            let _ = writer.join();
            let _ = std::fs::remove_file(path);
            return Ok(());
        }
        // EOF without shutdown: wait for this connection's in-flight
        // responses (their senders) before accepting the next client.
        drop(out_tx);
        let _ = writer.join();
    }
    Ok(())
}

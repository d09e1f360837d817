//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments --list                 # show all experiment ids
//! experiments all                    # run everything (full grid, 3 seeds)
//! experiments fig10 table3           # run selected experiments
//! experiments --quick fig10          # thinned sweep, 1 seed
//! experiments --out results fig10    # also write results/<id>.{txt,csv}
//! ```

use simrun::experiments::{all_experiment_ids, run_experiment, Effort};
use std::io::Write;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut effort = Effort::FULL;
    let mut out_dir: Option<PathBuf> = None;
    let mut ids: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => {
                for id in all_experiment_ids() {
                    println!("{id}");
                }
                return;
            }
            "--quick" => effort = Effort::QUICK,
            "--out" => {
                i += 1;
                out_dir = Some(PathBuf::from(args.get(i).expect("--out needs a directory")));
            }
            "all" => ids = all_experiment_ids().iter().map(|s| s.to_string()).collect(),
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
            id => ids.push(id.to_string()),
        }
        i += 1;
    }

    if ids.is_empty() {
        eprintln!("usage: experiments [--quick] [--out DIR] (all | <id>...)");
        eprintln!("ids:");
        for id in all_experiment_ids() {
            eprintln!("  {id}");
        }
        std::process::exit(2);
    }

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }

    for id in &ids {
        #[allow(
            clippy::disallowed_methods,
            reason = "coarse per-experiment progress timer printed to the user"
        )]
        let start = std::time::Instant::now();
        let table = run_experiment(id, effort);
        let text = table.render_text();
        println!("{text}");
        let plot = table.render_plot(64, 16);
        if let Some(p) = &plot {
            println!("{p}");
        }
        println!("({} finished in {:.1?})\n", id, start.elapsed());
        if let Some(dir) = &out_dir {
            let mut f = std::fs::File::create(dir.join(format!("{id}.txt"))).unwrap();
            f.write_all(text.as_bytes()).unwrap();
            let mut f = std::fs::File::create(dir.join(format!("{id}.csv"))).unwrap();
            f.write_all(table.to_csv().as_bytes()).unwrap();
            if let Some(p) = &plot {
                let mut f = std::fs::File::create(dir.join(format!("{id}.plot.txt"))).unwrap();
                f.write_all(p.as_bytes()).unwrap();
            }
        }
    }
}

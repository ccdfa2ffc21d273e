(* nfbench: the end-to-end benchmark of the atlas build → serve pipeline
   and the Monte-Carlo walk.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Every workload runs the atlas pipeline and the walk, each at the
   scale the workload names, checks every output, and prints one JSON
   object as its last stdout line: the end-to-end metrics, or with
   --trace 1 the per-layer metrics of the same run.  See README.md. *)

open Nfbench
open Common

let end_to_end =
  [
    ("build_j1_s", "s"); ("store_mb", "MB"); ("setup_s", "s");
    ("query_rps", "req/s"); ("stable_at_p50_ms", "ms"); ("stable_at_p90_ms", "ms");
    ("entry_p50_ms", "ms"); ("entry_p90_ms", "ms"); ("bulk_stable_at_ms", "ms");
    ("bcg_trials_per_s", "1/s"); ("coalition_trials_per_s", "1/s");
    ("adversary_trials_per_s", "1/s"); ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("enum.s", "s"); ("enum.classes", "count"); ("symmetry.s", "s"); ("symmetry.nontrivial", "count");
    ("annotate.bcg_s", "s"); ("annotate.bcg_plain_s", "s"); ("annotate.ucg_s", "s");
    ("annotate.ucg_plain_s", "s"); ("encode.s", "s"); ("crc.s", "s"); ("write.s", "s");
    ("merge.s", "s"); ("verify.s", "s"); ("store.chunks", "count"); ("build.unattributed_s", "s");
    ("build.library_gap_s", "s"); ("trace.overhead_s", "s"); ("pool.build_cpu_ratio", "ratio"); ("gc.build_minor_words", "words");
    ("gc.build_major_collections", "count"); ("gc.walk_minor_words", "words"); ("mmap.open_s", "s");
    ("alpha_index.build_s", "s"); ("alpha_index.endpoints", "count");
    ("service.graph6_table_s", "s"); ("service.stable_ids_us", "us"); ("service.find_entry_us", "us");
    ("mmap.record_us", "us"); ("chunk_cache.decodes_per_entry", "ratio");
    ("server.handle_line_us", "us"); ("json.render_us", "us"); ("wire_us", "us");
    ("json.bulk_render_ms", "ms"); ("service.figures_s", "s"); ("walk.bcg.trial_s", "s");
    ("walk.bcg.evals", "count"); ("walk.bcg.moves", "count"); ("kernel.all_sums_us", "us");
    ("walk.coalition.steps", "count"); ("walk.coalition.moves_listed_per_step", "count");
    ("walk.coalition.step_ms", "ms"); ("walk.adversary.steps", "count");
    ("walk.adversary.moves_listed_per_step", "count"); ("walk.adversary.step_ms", "ms");
  ]

type workload = { atlas : Atlas.cfg; walks : Walk.game_cfg list }

let walks ~n ~trials =
  let g game label (t, p) = { Walk.game; label; n; trials = t; parity_trials = p } in
  let bt, ct, at = trials in
  [ g "adversary" "adversary" at; g "coalition:k=2" "coalition" ct; g "bcg" "bcg" bt ]

let workloads =
  [
    ( "atlas-bcg9",
      {
        atlas =
          {
            Atlas.n = 9; with_ucg = false; setup_reps = 3; probes = true;
            rounds_per_s = 120; entry_pool = 512; bulk = 1;
            ucg_reference_samples = 0;
          };
        walks = walks ~n:9 ~trials:((12000, 8), (6000, 8), (1000, 4));
      } );
    ( "atlas-ucg7",
      {
        atlas =
          {
            Atlas.n = 7; with_ucg = true; setup_reps = 9; probes = false;
            rounds_per_s = 500; entry_pool = 128; bulk = 6;
            ucg_reference_samples = 8;
          };
        walks = walks ~n:7 ~trials:((32000, 8), (16000, 8), (3200, 4));
      } );
  ]

let command_output cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | ic ->
    let out = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    out

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result r names =
  let metrics =
    List.map
      (fun (name, unit_) ->
        let value, unit_ =
          match List.assoc_opt name r.metrics with Some m -> m | None -> (0.0, unit_)
        in
        let value =
          if Float.is_finite value then value
          else begin
            error r "metric %s is not finite" name;
            0.0
          end
        in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float value) unit_)
      names
  in
  List.iter (fun e -> log "check failed: %s" e) (List.rev r.errors);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.errors = []) r.attempted r.failed (String.concat ", " metrics)

let () =
  let workload = ref ""
  and seed = ref 1
  and seconds = ref 10
  and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME atlas-bcg9 | atlas-ucg7");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed query mix");
      ("--trace", Arg.Set_int trace, "0|1 print per-layer metrics instead of end-to-end ones");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  (* a terminated run still stops its daemons (Atlas's at_exit) *)
  List.iter (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 2))) [ Sys.sigint; Sys.sigterm ];
  let traced = !trace = 1 in
  Trace.enabled := traced;
  let nproc = match int_of_string_opt (command_output "nproc") with Some k when k > 0 -> k | _ -> 1 in
  let commit =
    if Sys.file_exists ".git" then command_output "git rev-parse HEAD"
    else "unknown (not a git checkout)"
  in
  Printf.printf
    "provenance: commit=%s nproc=%d recommended_domain_count=%d ocaml=%s jobs=1,%d workload=%s \
     seed=%d seconds=%d trace=%d\n\
     %!"
    commit nproc (Domain.recommended_domain_count ()) Sys.ocaml_version nproc !workload !seed
    !seconds !trace;
  let r = result () in
  let steal0, total0 = cpu_jiffies () in
  let env =
    {
      Atlas.work = Filename.concat ".nfbench_work" !workload;
      nproc;
      seed = !seed;
      seconds = !seconds;
      traced;
    }
  in
  mkdir_p env.Atlas.work;
  let runs = Walk.prepare ~batches:Atlas.slices ~seed:!seed w.walks in
  let between k ~rounds =
    Walk.batch runs k;
    Walk.kernel_probes r ~n:w.atlas.Atlas.n ~count:rounds
  in
  let daemon_rss = Atlas.run env w.atlas r ~between in
  Walk.finish ~nproc ~seed:!seed ~traced r runs;
  metric r "peak_rss_mb" "MB" (Float.max daemon_rss (self_peak_rss_mb ()));
  rm_rf env.Atlas.work;
  let steal1, total1 = cpu_jiffies () in
  log "cpu time stolen by the host during the run: %.1f%%"
    (100.0 *. float_of_int (steal1 - steal0) /. float_of_int (max 1 (total1 - total0)));
  if traced then begin
    let out = ".nfbench_out" in
    mkdir_p out;
    let path = Filename.concat out ("spans-" ^ !workload ^ ".tsv") in
    Trace.write path;
    Printf.printf "spans: %d written to %s\n" (List.length !Trace.spans) path;
    List.iter
      (fun (name, unit_) ->
        let v = match List.assoc_opt name r.metrics with Some (v, _) -> v | None -> 0.0 in
        Printf.printf "  %-40s %14.6g %s\n" name v unit_)
      per_layer
  end;
  print_result r (if traced then per_layer else end_to_end)

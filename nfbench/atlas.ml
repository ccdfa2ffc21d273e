(* The atlas pipeline: build a store at jobs=1, build it again as a k = 2
   shard family at jobs=nproc and merge it with --streaming, then serve
   the merged store from a real `netform serve` daemon to one
   closed-loop client. *)

open Common
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval
module Pool = Nf_util.Pool
module Layout = Nf_store.Layout
module Graph6 = Nf_graph.Graph6
module Json = Nf_serve.Json
module Protocol = Nf_serve.Protocol
module Client = Nf_serve.Client

type cfg = {
  n : int;
  with_ucg : bool;
  setup_reps : int;  (** daemon starts per run; the median is reported *)
  probes : bool;  (** send the near-overflow α probes *)
  rounds_per_s : int;  (** mix rounds per second of --seconds *)
  entry_pool : int;  (** distinct stored classes the entry lookups draw from *)
  bulk : int;  (** bulk stable-at requests after each mix slice *)
  ucg_reference_samples : int;  (** of which also get a reference UCG set *)
}

type env = {
  work : string;  (** scratch directory inside the checkout *)
  nproc : int;
  seed : int;
  seconds : int;
  traced : bool;
}

(* ---------------- builds ---------------- *)

let shard_count = 2

(* records per chunk: Build.build's default, which every build here uses *)
let chunk_size = 512

let build_j1 cfg path =
  Pool.set_default_jobs 1;
  ignore (Nf_store.Build.build ~with_ucg:cfg.with_ucg ~force:true ~path ~n:cfg.n ())

let build_jn env cfg ~dir ~out =
  Pool.set_default_jobs env.nproc;
  let shards =
    List.init shard_count (fun i ->
        let path = Filename.concat dir (Printf.sprintf "shard-%d.store" (i + 1)) in
        ignore
          (Nf_store.Build.build ~with_ucg:cfg.with_ucg ~shard:(i + 1, shard_count) ~force:true
             ~path ~n:cfg.n ());
        path)
  in
  let cpu = cpu_seconds () in
  Trace.span "merge" (fun () ->
      ignore (Nf_store.Merge.merge ~force:true ~streaming:true ~paths:shards ~out ()));
  (* join the worker domains: idle domains still take part in every
     stop-the-world minor collection of the timed phases that follow *)
  Pool.set_default_jobs 1;
  cpu_seconds () -. cpu

(* The same jobs=1 build, one public call per stage so each can be
   timed: enumerate → symmetry → annotate → encode → Writer.  It must
   write exactly Build.build's bytes. *)
let decomposed_build cfg path =
  Pool.set_default_jobs 1;
  let content = Layout.Classic { with_ucg = cfg.with_ucg } in
  let writer =
    Nf_store.Writer.create ~path ~header:{ Layout.n = cfg.n; content; chunk_size; shard = None }
  in
  let nontrivial = ref 0
  and classes = ref 0
  and index = ref 0 in
  Trace.span "enum" (fun () ->
      Nf_enum.Unlabeled.iter_connected_chunked ~chunk:chunk_size cfg.n (fun graphs ->
          classes := !classes + Array.length graphs;
          let syms =
            Trace.span "symmetry" (fun () -> Array.map Netform.Game.sweep_symmetry graphs)
          in
          Array.iter (fun s -> if not (Nf_iso.Symmetry.is_trivial s) then incr nontrivial) syms;
          let bcg =
            Trace.span "annotate.bcg" (fun () ->
                Nf_graph.Kernel.with_ws (fun ws ->
                    Array.map2 (fun s g -> Netform.Bcg.stable_alpha_set_sym_ws ws s g) syms graphs))
          in
          let ucg =
            if cfg.with_ucg then
              Trace.span "annotate.ucg" (fun () ->
                  Nf_graph.Kernel.with_ws (fun ws ->
                      Array.map2
                        (fun s g -> Some (Netform.Ucg.nash_alpha_set_sym_ws ws s g))
                        syms graphs))
            else Array.make (Array.length graphs) None
          in
          let g6 = Trace.span "encode.graph6" (fun () -> Array.map Graph6.encode graphs) in
          let records =
            Array.init (Array.length graphs) (fun i ->
                { Layout.graph6 = g6.(i); bcg = bcg.(i); ucg = ucg.(i) })
          in
          let frame =
            Trace.span "encode.chunk" (fun () -> Layout.encode_chunk ~index:!index ~content records)
          in
          ignore (Trace.span "crc" (fun () -> Nf_store.Crc32.string frame));
          incr index;
          Trace.span "write" (fun () -> Nf_store.Writer.append_chunk writer records)));
  Trace.span "write" (fun () -> Nf_store.Writer.finalize writer);
  (!classes, !nontrivial)

(* ---------------- α candidates and naive answers ---------------- *)

let columns cfg = if cfg.with_ucg then [ `Bcg; `Ucg ] else [ `Bcg ]
let column_name = function `Bcg -> "bcg" | `Ucg -> "ucg"

let pieces column (r : Layout.record) =
  match column with
  | `Bcg -> [ r.Layout.bcg ]
  | `Ucg -> ( match r.Layout.ucg with Some u -> Interval.Union.to_list u | None -> [])

(* the paper's α range [1/4, 64] at denominators up to 4 *)
let candidates =
  let seen = Hashtbl.create 512 in
  List.concat_map
    (fun q ->
      List.filter_map
        (fun p ->
          let a = Rat.make p q in
          if Hashtbl.mem seen a then None
          else begin
            Hashtbl.replace seen a ();
            Some a
          end)
        (List.init (64 * q) (fun i -> i + 1)))
    [ 1; 2; 3; 4 ]
  |> List.filter (fun a -> Rat.compare a (Rat.make 1 4) >= 0)
  |> List.sort Rat.compare

let endpoints records =
  let seen = Hashtbl.create 1024 in
  Array.iter
    (fun r ->
      List.iter
        (fun column ->
          List.iter
            (fun iv ->
              match Interval.bounds iv with
              | None -> ()
              | Some (lo, _, hi, _) ->
                List.iter
                  (function Interval.Finite x -> Hashtbl.replace seen x () | _ -> ())
                  [ lo; hi ])
            (pieces column r))
        [ `Bcg; `Ucg ])
    records;
  List.sort Rat.compare (List.of_seq (Hashtbl.to_seq_keys seen))

(* Answer sizes at every query point in one pass: the queries inside an
   interval form a contiguous run of the sorted query array, found by
   two binary searches on the interval's bounds. *)
let answer_counts ~column records queries =
  let q = Array.of_list queries in
  let m = Array.length q in
  let diff = Array.make (m + 1) 0 in
  let first pred =
    let lo = ref 0
    and hi = ref m in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if pred q.(mid) then hi := mid else lo := mid + 1
    done;
    !lo
  in
  Array.iter
    (fun r ->
      List.iter
        (fun iv ->
          match Interval.bounds iv with
          | None -> ()
          | Some (lo, lc, hi, hc) ->
            let inside_lo x =
              match lo with
              | Interval.Neg_inf -> true
              | Interval.Finite l -> if lc then Rat.compare x l >= 0 else Rat.compare x l > 0
              | Interval.Pos_inf -> false
            and beyond_hi x =
              match hi with
              | Interval.Pos_inf -> false
              | Interval.Finite h -> if hc then Rat.compare x h > 0 else Rat.compare x h >= 0
              | Interval.Neg_inf -> true
            in
            let i = first inside_lo
            and j = first beyond_hi in
            if i < j then begin
              diff.(i) <- diff.(i) + 1;
              diff.(j) <- diff.(j) - 1
            end)
        (pieces column r))
    records;
  let tbl = Hashtbl.create m in
  let acc = ref 0 in
  Array.iteri
    (fun i a ->
      acc := !acc + diff.(i);
      Hashtbl.replace tbl a !acc)
    q;
  tbl

(* (2^62−2)/(2^62−1), (2^62−1)/(2^62−2) and (2^62−1)/(2^61−1): just
   below 1, just above 1 and just above 2 *)
let probes =
  let m = max_int in
  [ Rat.make (m - 1) m; Rat.make m (m - 1); Rat.make m ((m - 1) / 2) ]

(* ---------------- the daemon ---------------- *)

(* the executable run.sh builds from this checkout *)
let netform = "_build/default/bin/netform_cli.exe"

type daemon = { pid : int; client : Client.t }

let connect ~socket ~deadline =
  let rec go () =
    match Client.connect socket with
    | c -> c
    | exception Unix.Unix_error _ when now () < deadline ->
      Unix.sleepf 0.002;
      go ()
  in
  go ()

(* daemons not yet stopped; killed at exit, so that a run that fails
   half-way leaves no process behind *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn ~store ~socket =
  (try Sys.remove socket with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process netform
      [| netform; "serve"; store; "--socket"; socket; "-j"; "1"; "-q" |]
      devnull Unix.stderr Unix.stderr
  in
  Unix.close devnull;
  live := pid :: !live;
  { pid; client = connect ~socket ~deadline:(now () +. 60.0) }

let stop d =
  (try ignore (Client.request d.client Protocol.Shutdown) with _ -> ());
  Client.close d.client;
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (( <> ) d.pid) !live

let stable_request column alpha = Protocol.Stable_at { game = Some (column_name column); alpha }

let graphs_of json =
  match Option.bind (Json.member "graphs" json) Json.to_list with
  | Some l -> List.map (fun g -> Option.value ~default:"" (Json.to_str g)) l
  | None -> []

(* ---------------- per-layer measurements (traced run) ---------------- *)

let us_median f xs = 1e6 *. median (List.map (fun x -> snd (timed (fun () -> f x))) xs)

let take k l = List.filteri (fun i _ -> i < k) l

(* decoded-chunk loads a 64-chunk FIFO cache makes for this id sequence *)
let fifo_decodes ~cache ~chunk_size ids =
  let q = Queue.create ()
  and held = Hashtbl.create cache in
  List.fold_left
    (fun misses id ->
      let c = id / chunk_size in
      if Hashtbl.mem held c then misses
      else begin
        if Queue.length q >= cache then Hashtbl.remove held (Queue.pop q);
        Queue.push c q;
        Hashtbl.replace held c ();
        misses + 1
      end)
    0 ids

let plain_annotation r ~with_ucg records =
  let graphs = Array.map (fun (x : Layout.record) -> Graph6.decode x.Layout.graph6) records in
  Nf_iso.Symmetry.set_quotient_enabled false;
  Fun.protect
    ~finally:(fun () -> Nf_iso.Symmetry.set_quotient_enabled true)
    (fun () ->
      let annotate name f same =
        let out =
          Trace.span name (fun () ->
              Nf_graph.Kernel.with_ws (fun ws ->
                  Array.map (fun g -> f ws (Netform.Game.sweep_symmetry g) g) graphs))
        in
        Array.iteri
          (fun i x ->
            if not (same x records.(i)) then
              error r "%s: plain region of %s differs from the stored one" name records.(i).Layout.graph6)
          out
      in
      annotate "annotate.bcg_plain" Netform.Bcg.stable_alpha_set_sym_ws (fun x (s : Layout.record) ->
          Interval.equal x s.Layout.bcg);
      if with_ucg then
        annotate "annotate.ucg_plain" Netform.Ucg.nash_alpha_set_sym_ws (fun x (s : Layout.record) ->
            match s.Layout.ucg with Some u -> Interval.Union.equal x u | None -> false))

let measure_layers env cfg r ~merged ~records ~mix_alphas ~pool ~entry_ids ~bulk ~reference
    ~cpu_ratio ~gc_minor ~gc_major =
  let module S = Nf_serve.Service in
  let module Mmap = Nf_serve.Mmap_reader in
  let dir = Filename.dirname merged in
  (* Three jobs=1 builds side by side, each from a compacted heap:
     Build.build, the hand-decomposed build untraced, and the same traced.
     The order flips with the seed's parity, so neither build always runs
     first.  Both decomposed builds must write Build.build's bytes. *)
  let dec = Filename.concat dir "decomposed.store" in
  let library () = build_j1 cfg (Filename.concat dir "beside.store") in
  let decomposed ~traced () =
    Trace.enabled := traced;
    Fun.protect ~finally:(fun () -> Trace.enabled := true) (fun () -> decomposed_build cfg dec)
  in
  let builds =
    [ ("library", fun () -> library (); (0, 0)); ("untraced", decomposed ~traced:false);
      ("traced", decomposed ~traced:true) ]
  in
  let times =
    List.map
      (fun (name, f) ->
        Gc.compact ();
        let counts, s = timed f in
        if name <> "library" && read_file dec <> reference then
          error r "decomposed build (%s): bytes differ from Build.build's" name;
        (name, (counts, s)))
      (if env.seed mod 2 = 0 then builds else List.rev builds)
  in
  let time name = snd (List.assoc name times) in
  let classes, nontrivial = fst (List.assoc "traced" times) in
  log "beside: Build.build %.3fs, decomposed untraced %.3fs, traced %.3fs" (time "library")
    (time "untraced") (time "traced");
  let stage = Trace.total in
  let enum_s = Trace.self_total "enum" in
  metric r "enum.s" "s" enum_s;
  metric r "enum.classes" "count" (float_of_int classes);
  metric r "symmetry.s" "s" (stage "symmetry");
  metric r "symmetry.nontrivial" "count" (float_of_int nontrivial);
  plain_annotation r ~with_ucg:cfg.with_ucg records;
  metric r "annotate.bcg_s" "s" (stage "annotate.bcg");
  metric r "annotate.bcg_plain_s" "s" (stage "annotate.bcg_plain");
  metric r "annotate.ucg_s" "s" (stage "annotate.ucg");
  metric r "annotate.ucg_plain_s" "s" (stage "annotate.ucg_plain");
  metric r "encode.s" "s" (stage "encode.graph6" +. stage "encode.chunk");
  metric r "crc.s" "s" (stage "crc");
  metric r "write.s" "s" (stage "write");
  metric r "merge.s" "s" (stage "merge");
  let verified = Trace.span "verify" (fun () -> Nf_store.Reader.verify ~path:merged) in
  metric r "verify.s" "s" (stage "verify");
  metric r "store.chunks" "count"
    (match verified with Ok s -> float_of_int s.Nf_store.Reader.chunks | Error _ -> 0.0);
  (* the traced build's time outside its stages; Writer.append_chunk
     frames the chunk itself, so the separately timed encode_chunk and
     CRC calls are not counted twice *)
  metric r "build.unattributed_s" "s"
    (time "traced"
    -. (enum_s +. stage "symmetry" +. stage "annotate.bcg" +. stage "annotate.ucg"
       +. stage "encode.graph6" +. stage "write"));
  metric r "build.library_gap_s" "s" (time "library" -. time "untraced");
  metric r "trace.overhead_s" "s" (time "traced" -. time "untraced");
  metric r "pool.build_cpu_ratio" "ratio" cpu_ratio;
  metric r "gc.build_minor_words" "words" gc_minor;
  metric r "gc.build_major_collections" "count" (float_of_int gc_major);
  (* the read path, in process *)
  let mm, open_s = timed (fun () -> Mmap.open_store ~path:merged ()) in
  Mmap.close mm;
  metric r "mmap.open_s" "s" open_s;
  let svc = S.create ~path:merged () in
  let count = S.length svc in
  let idx, index_s =
    timed (fun () ->
        let regions = Array.make count [] in
        Mmap.iter (S.store svc) (fun i x -> regions.(i) <- [ x.Layout.bcg ]);
        Nf_serve.Alpha_index.build ~count ~pieces:(Array.get regions))
  in
  metric r "alpha_index.build_s" "s" index_s;
  metric r "alpha_index.endpoints" "count"
    (float_of_int (Array.length (Nf_serve.Alpha_index.endpoints idx)));
  let pool_g6 = Array.to_list (Array.map (fun (_, g6, _) -> g6) pool) in
  let (), table_s = timed (fun () -> ignore (S.find_entry svc ~graph6:(List.hd pool_g6))) in
  metric r "service.graph6_table_s" "s" table_s;
  let alphas = take 512 (Array.to_list mix_alphas) in
  ignore (S.stable_ids svc ~game:"bcg" ~alpha:Rat.one);
  metric r "service.stable_ids_us" "us"
    (us_median (fun a -> S.stable_ids svc ~game:"bcg" ~alpha:a) alphas);
  metric r "service.find_entry_us" "us" (us_median (fun g6 -> S.find_entry svc ~graph6:g6) pool_g6);
  metric r "mmap.record_us" "us"
    (us_median (fun id -> Mmap.record (S.store svc) id) (take 2048 entry_ids));
  metric r "chunk_cache.decodes_per_entry" "ratio"
    (float_of_int (fifo_decodes ~cache:64 ~chunk_size entry_ids)
    /. float_of_int (max 1 (List.length entry_ids)));
  (* one wire line per request: handled in process, then over the socket *)
  let lines =
    List.concat
      (List.mapi
         (fun i a ->
           let g6 = List.nth pool_g6 (i mod List.length pool_g6) in
           [
             Json.to_string (Protocol.request_to_json (stable_request `Bcg a));
             Json.to_string (Protocol.request_to_json (Protocol.Entry { graph6 = g6 }));
           ])
         (take 256 alphas))
  in
  let handled = List.map (fun l -> timed (fun () -> fst (Nf_serve.Server.handle_line svc l))) lines in
  let handle_us = 1e6 *. median (List.map snd handled) in
  metric r "server.handle_line_us" "us" handle_us;
  let parsed = List.map (fun (resp, _) -> Json.of_string (String.trim resp)) handled in
  metric r "json.render_us" "us" (us_median Json.to_string parsed);
  (* the same lines over the socket, pinned like the timed mix; the
     first pass warms the daemon's chunk cache as [svc]'s was *)
  let pinned = pin_self "0" in
  let d = spawn ~store:merged ~socket:(Filename.concat dir "l.sock") in
  List.iter (fun l -> ignore (Client.request_raw d.client l)) lines;
  let wire = List.map (fun l -> snd (timed (fun () -> Client.request_raw d.client l))) lines in
  stop d;
  if pinned then ignore (pin_self (Printf.sprintf "0-%d" (env.nproc - 1)));
  metric r "wire_us" "us" (1e6 *. median (List.map2 (fun w (_, h) -> w -. h) wire handled));
  let bulk_column, bulk_alpha = bulk in
  let bulk_json =
    Json.of_string
      (String.trim
         (fst
            (Nf_serve.Server.handle_line svc
               (Json.to_string (Protocol.request_to_json (stable_request bulk_column bulk_alpha))))))
  in
  metric r "json.bulk_render_ms" "ms" (1e3 *. snd (timed (fun () -> Json.to_string bulk_json)));
  let cold = S.create ~path:merged () in
  metric r "service.figures_s" "s" (snd (timed (fun () -> S.figure_csv cold ())))

(* ---------------- the phase ---------------- *)

(* The timed phases are cut into this many slices, and every figure is
   the median of the slices' figures: the host's speed drifts by a fifth
   over seconds, and the median keeps a slow stretch of the host from
   setting it.  [between k ~rounds] runs after mix slice [k] of [rounds]
   rounds, on the mix's cpu: the walk batches, so that the mix and the
   walk both sample the whole run. *)
let slices = 16

(* records re-annotated by the reference annotators in every run *)
let region_samples = 48

let run env cfg (r : result) ~between =
  let all_cpus = Printf.sprintf "0-%d" (env.nproc - 1) in
  let dir = Filename.concat env.work "atlas" in
  rm_rf dir;
  mkdir_p dir;
  let j1_path = Filename.concat dir "j1.store"
  and merged = Filename.concat dir "merged.store" in
  (* The client and the daemon share one cpu while they talk: a closed
     loop keeps exactly one of them runnable, and a round trip never
     waits for the host to wake a halted virtual cpu.  Children inherit
     the mask, so every daemon started below is pinned too.  The jobs=1
     builds and the walk batches between the slices stay on that cpu:
     unpinned, their times moved with whichever cpu the host was
     slowing.  Only the shard build runs on every cpu. *)
  let pinned = pin_self "0" in
  (* Three jobs=1 builds: the first makes the reference store, the other
     two run between mix slices, and build_j1_s is their median.  One
     build is one stretch of about ten seconds, and this host's speed
     moved by up to a fifth from one such stretch to the next.  Every
     build must equal the first byte for byte.  A traced run prints no
     build figure and builds once. *)
  let reference = ref "" in
  let j1_build k =
    let path = if k = 0 then j1_path else Filename.concat dir "again-j1.store" in
    Gc.compact ();
    let gc0 = Gc.quick_stat () in
    let cpu = cpu_seconds () in
    let (), s = timed (fun () -> build_j1 cfg path) in
    let cpu = cpu_seconds () -. cpu in
    log "build %d: jobs=1 %.3fs wall %.3fs cpu" (k + 1) s cpu;
    if k = 0 then reference := read_file path
    else if read_file path <> !reference then
      error r "jobs=1 build %d: bytes differ from build 1's" (k + 1);
    (s, cpu, gc0)
  in
  let build_reps = if env.traced then 1 else 3 in
  let ((_, j1_cpu, gc0) as first_j1) = j1_build 0 in
  let j1_builds = ref [ first_j1 ] in
  let reference = !reference in
  (* then k = 2 shards at jobs=nproc + streaming merge, once: on two
     virtual cpus its wall time followed the host's stolen time (10.2 to
     23.5 s for the same n = 9 build, 5.9 to 17.8 s at n = 7), so it is
     logged, not reported *)
  let gc1 = Gc.quick_stat () in
  if pinned then ignore (pin_self all_cpus);
  let cpu = cpu_seconds () in
  let merge_cpu, jn_s = timed (fun () -> build_jn env cfg ~dir ~out:merged) in
  let jn_cpu = cpu_seconds () -. cpu -. merge_cpu in
  if pinned then ignore (pin_self "0");
  log "shard build: jobs=%d %.3fs wall %.3fs cpu (shards)" env.nproc jn_s jn_cpu;
  check r "merge" (Checks.merged_store ~reference ~merged_path:merged);
  metric r "store_mb" "MB" (float_of_int (file_size merged) /. 1e6);
  let _, records = Nf_store.Reader.load ~path:merged in
  check r "class count" (Checks.class_count ~n:cfg.n ~records:(Array.length records));
  let rng = Nf_util.Prng.create env.seed in
  let nrec = Array.length records in
  let cands = Array.of_list candidates in
  (* stored regions against the reference annotators, membership against
     the point certifiers *)
  for k = 0 to region_samples - 1 do
    let rec_ = records.(Nf_util.Prng.int rng nrec) in
    let with_ucg = cfg.with_ucg && k < cfg.ucg_reference_samples in
    check r "stored region" (Checks.record_region ~with_ucg rec_);
    for _ = 1 to 3 do
      let alpha = cands.(Nf_util.Prng.int rng (Array.length cands)) in
      check r "membership" (Checks.membership ~with_ucg:cfg.with_ucg ~alpha rec_)
    done
  done;
  (* query inputs: the bulk α is the endpoint with the largest answer *)
  let ends = endpoints records in
  let queries = List.sort_uniq Rat.compare (ends @ candidates) in
  let counts = List.map (fun c -> (c, answer_counts ~column:c records queries)) (columns cfg) in
  let bulk_column, bulk_alpha, bulk_count =
    List.fold_left
      (fun best (c, tbl) ->
        List.fold_left
          (fun ((_, _, k0) as best) a ->
            let k = Hashtbl.find tbl a in
            if k > k0 then (c, a, k) else best)
          best ends)
      (`Bcg, Rat.one, -1) counts
  in
  let mix_alphas = Array.of_list (List.filter (fun a -> not (Rat.equal a bulk_alpha)) candidates) in
  let expected_count column a = Hashtbl.find (List.assoc column counts) a in
  let naive = Hashtbl.create 64 in
  let naive_answer column a =
    match Hashtbl.find_opt naive (column, a) with
    | Some l -> l
    | None ->
      let l = Checks.naive_stable ~column records a in
      Hashtbl.replace naive (column, a) l;
      l
  in
  (* every answer's size is checked; these α get a full comparison *)
  let full_checks = Hashtbl.create 32 in
  for _ = 1 to 24 do
    Hashtbl.replace full_checks mix_alphas.(Nf_util.Prng.int rng (Array.length mix_alphas)) ()
  done;
  let pool =
    Array.init cfg.entry_pool (fun _ ->
        let id = Nf_util.Prng.int rng nrec in
        let g = Graph6.decode records.(id).Layout.graph6 in
        let regions =
          ("bcg", Interval.to_string (Netform.Bcg.stable_alpha_set_reference g))
          :: (if cfg.with_ucg then
                [ ("ucg", Interval.Union.to_string (Netform.Ucg.nash_alpha_set_reference g)) ]
              else [])
        in
        (id, records.(id).Layout.graph6, regions))
  in
  let check_stable column a json =
    let got = graphs_of json in
    if not (Protocol.response_ok json) then
      Error (Printf.sprintf "stable-at %s: %s" (Rat.to_string a) (Protocol.response_error json))
    else if Hashtbl.mem full_checks a then Checks.stable_at ~expected:(naive_answer column a) ~got
    else if List.length got <> expected_count column a then
      Error
        (Printf.sprintf "stable-at %s %s: %d graphs, the linear count is %d" (column_name column)
           (Rat.to_string a) (List.length got) (expected_count column a))
    else Ok ()
  in
  let probe_expect =
    List.map
      (fun p ->
        let rep = Checks.representative ~endpoints:ends p in
        (p, rep, naive_answer `Bcg rep))
      (if cfg.probes then probes else [])
  in
  (* set-up: daemon start until the α-indexes and the graph6 table exist *)
  let socket = Filename.concat dir "d.sock" in
  let first_entry_id, first_entry_g6, first_entry_regions = pool.(0) in
  let start_daemon () =
    let t0 = now () in
    let d = spawn ~store:merged ~socket in
    let stable =
      List.map
        (fun c -> (c, Client.request d.client (stable_request c mix_alphas.(0))))
        (columns cfg)
    in
    let entry = Client.request d.client (Protocol.Entry { graph6 = first_entry_g6 }) in
    let s = now () -. t0 in
    List.iter
      (fun (c, resp) ->
        let ok = check_stable c mix_alphas.(0) resp in
        op r (Result.is_ok ok);
        check r "setup stable-at" ok)
      stable;
    let ok = Checks.entry ~id:first_entry_id ~regions:first_entry_regions entry in
    op r (Result.is_ok ok);
    check r "setup entry" ok;
    (d, s)
  in
  Gc.compact ();
  let setups =
    List.init cfg.setup_reps (fun i ->
        let d, s = start_daemon () in
        if i < cfg.setup_reps - 1 then stop d;
        (d, s))
  in
  let d = fst (List.nth setups (cfg.setup_reps - 1)) in
  metric r "setup_s" "s" (median (List.map snd setups));
  (* the timed mix: whole rounds of 8 stable-at, 8 entry (and the probes) *)
  let rounds = max slices (cfg.rounds_per_s * env.seconds) in
  let st_lat = Array.make (8 * rounds) 0.0
  and en_lat = Array.make (8 * rounds) 0.0
  and in_flight = Array.make rounds 0.0
  and entry_ids = ref [] in
  let cols = Array.of_list (columns cfg) in
  let round_of k = k * rounds / slices in
  (* bulk requests follow each slice, timed apart from the mix *)
  let bulk_expected = naive_answer bulk_column bulk_alpha in
  let bulk_lat = ref [] in
  let bulk_requests () =
    List.init cfg.bulk (fun _ ->
        let resp, s =
          timed (fun () -> Client.request d.client (stable_request bulk_column bulk_alpha))
        in
        let ok = Checks.stable_at ~expected:bulk_expected ~got:(graphs_of resp) in
        op r (Result.is_ok ok);
        check r "bulk stable-at" ok;
        s)
  in
  let mix_t0 = now () in
  for slice = 0 to slices - 1 do
    (* jobs=1 build k runs before slice k * slices / build_reps *)
    for k = 1 to build_reps - 1 do
      if slice = k * slices / build_reps then j1_builds := j1_build k :: !j1_builds
    done;
    for round = round_of slice to round_of (slice + 1) - 1 do
      let timed_request req =
        let resp, s = timed (fun () -> Client.request d.client req) in
        in_flight.(round) <- in_flight.(round) +. s;
        (resp, s)
      in
      for k = 0 to 7 do
        let column = cols.((round * 8 + k) mod Array.length cols) in
        let a = mix_alphas.(Nf_util.Prng.int rng (Array.length mix_alphas)) in
        let resp, s = timed_request (stable_request column a) in
        st_lat.((round * 8) + k) <- s;
        let ok = check_stable column a resp in
        op r (Result.is_ok ok);
        check r "stable-at" ok;
        let id, g6, regions = pool.(Nf_util.Prng.int rng (Array.length pool)) in
        let resp, s = timed_request (Protocol.Entry { graph6 = g6 }) in
        en_lat.((round * 8) + k) <- s;
        entry_ids := id :: !entry_ids;
        let ok = Checks.entry ~id ~regions resp in
        op r (Result.is_ok ok);
        check r "entry" ok
      done;
      List.iter
        (fun (p, _, expected) ->
          let resp, _ = timed_request (stable_request `Bcg p) in
          (* a known fault: Rat.compare overflows on these components *)
          op r (Protocol.response_ok resp && graphs_of resp = expected))
        probe_expect
    done;
    bulk_lat := bulk_requests () :: !bulk_lat;
    between slice ~rounds:(round_of (slice + 1) - round_of slice)
  done;
  let mix_s = now () -. mix_t0 in
  metric r "build_j1_s" "s" (median (List.map (fun (s, _, _) -> s) !j1_builds));
  (* Each figure is the median over the slices of the slice's figure.
     With --seconds 12, every slice holds at least 720 samples of each
     kind, so its p90 has 72 beyond it.  The whole run's p99 is only
     logged: on the small store it sat where the 1-2% of round trips
     that met a stall begin (0.4-0.9 ms against a 0.03 ms median), and
     it moved with the share of cpu time the host stole. *)
  let per_slice f = median (List.init slices (fun k -> f (round_of k) (round_of (k + 1)))) in
  let sub a lo hi = Array.to_list (Array.sub a (8 * lo) (8 * (hi - lo))) in
  let ms a p = per_slice (fun lo hi -> 1000.0 *. percentile p (sub a lo hi)) in
  (* requests per second the daemon completes for one client: time in
     flight only, not the client's own checking between requests *)
  let per_round = 16 + List.length probe_expect in
  metric r "query_rps" "req/s"
    (per_slice (fun lo hi ->
         float_of_int (per_round * (hi - lo))
         /. Array.fold_left ( +. ) 0.0 (Array.sub in_flight lo (hi - lo))));
  metric r "stable_at_p50_ms" "ms" (ms st_lat 50.0);
  metric r "stable_at_p90_ms" "ms" (ms st_lat 90.0);
  metric r "entry_p50_ms" "ms" (ms en_lat 50.0);
  metric r "entry_p90_ms" "ms" (ms en_lat 90.0);
  log "whole-run p99: stable-at %.4f ms, entry %.4f ms"
    (1000.0 *. percentile 99.0 (Array.to_list st_lat))
    (1000.0 *. percentile 99.0 (Array.to_list en_lat));
  log "mix: %d rounds, %d requests, %.2fs with the walk batches and later builds between slices"
    rounds (per_round * rounds) mix_s;
  List.iter
    (fun (p, rep, expected) ->
      log "probe %s: expected %d classes (as at %s)" (Rat.to_string p) (List.length expected)
        (Rat.to_string rep))
    probe_expect;
  metric r "bulk_stable_at_ms" "ms" (1000.0 *. median (List.concat !bulk_lat));
  log "bulk: %s at alpha %s, %d classes" (column_name bulk_column) (Rat.to_string bulk_alpha)
    bulk_count;
  let daemon_rss = peak_rss_mb (string_of_int d.pid) in
  stop d;
  if pinned then ignore (pin_self all_cpus);
  log "client and daemon pinned to cpu 0: %b" pinned;
  if env.traced then
    measure_layers env cfg r ~merged ~records ~mix_alphas ~pool ~entry_ids:(List.rev !entry_ids)
      ~bulk:(bulk_column, bulk_alpha) ~reference
      ~cpu_ratio:(jn_cpu /. j1_cpu)
      ~gc_minor:(gc1.Gc.minor_words -. gc0.Gc.minor_words)
      ~gc_major:(gc1.Gc.major_collections - gc0.Gc.major_collections);
  rm_rf dir;
  daemon_rss

(* The Monte-Carlo walk: the trials of Mc_poa.run at α = 2 and jobs=1
   for each game, timed in batches, every trial certified, and a
   jobs=nproc Mc_poa.run of the same seeds compared row for row. *)

open Common
module Rat = Nf_util.Rat
module Pool = Nf_util.Pool
module Mc_poa = Nf_dynamics.Mc_poa
module Game = Netform.Game

type game_cfg = {
  game : string;  (** registry name *)
  label : string;  (** metric prefix: bcg, coalition or adversary *)
  n : int;
  trials : int;
  parity_trials : int;  (** of which are rerun at jobs=nproc *)
}

let alpha = Rat.of_int 2

let csv packed ~n rows =
  if Game.name packed = "bcg" then Mc_poa.to_csv ~n ~alpha rows
  else Mc_poa.to_csv ~game:packed ~n ~alpha rows

(* Re-walk one generic trial step by step from its seed: the listing
   ([Game.improving_moves]) and the applied step ([Game_dynamics.step])
   are timed apart.  The replay must end on the trial's final graph. *)
let replay r packed ~label ~n (t : Mc_poa.trial) =
  let rng = Nf_util.Prng.create t.Mc_poa.seed in
  let g0 = Nf_graph.Random_graph.connected_gnp rng n (Mc_poa.default_init_p n) in
  let rec go g steps listed =
    let moves =
      Trace.span ("walk." ^ label ^ ".list") (fun () -> Game.improving_moves packed ~alpha g)
    in
    match moves with
    | [] -> (g, steps, listed)
    | _ -> (
      match
        Trace.span ("walk." ^ label ^ ".step") (fun () ->
            Nf_dynamics.Game_dynamics.step packed ~alpha ~rng g)
      with
      | None -> (g, steps, listed)
      | Some (_, g') -> go g' (steps + 1) (listed + List.length moves))
  in
  let final, steps, listed = go g0 0 0 in
  if not (Nf_graph.Graph.equal final t.Mc_poa.final) then
    error r "%s replay of trial %d ended on another graph" (Game.name packed) t.Mc_poa.index;
  (steps, listed)

(* One game's trials, run in batches of consecutive trials that the
   atlas phase interleaves with its mix slices. *)
type game_run = {
  cfg : game_cfg;
  packed : Game.packed;
  trial : int -> Mc_poa.trial;
  ranges : (int * int) array;  (** trial index ranges [lo, hi) of the batches *)
  mutable batches_done : (Mc_poa.trial list * float * float) list;
      (** rows, wall and CPU seconds; reversed *)
  mutable minor : float;  (** minor words allocated by the batches *)
}

let prepare ~batches ~seed games =
  List.map
    (fun g ->
      let packed = Netform.Game_registry.find_exn g.game in
      (* Mc_poa.run's pair-evaluation budget; at jobs=1 it maps exactly
         these per-trial calls over the trial indices *)
      let max_evals = 60 * (g.n * (g.n - 1) / 2) in
      let trial i =
        if Game.name packed = "bcg" then
          Mc_poa.run_trial ~n:g.n ~alpha ~max_evals ~init_p:None ~seed i
        else Mc_poa.run_game_trial ~game:packed ~n:g.n ~alpha ~max_steps:max_evals ~init_p:None ~seed i
      in
      let nb = min batches g.trials in
      let ranges = Array.init nb (fun b -> (b * g.trials / nb, (b + 1) * g.trials / nb)) in
      { cfg = g; packed; trial; ranges; batches_done = []; minor = 0.0 })
    games

let run_batch gr k =
  let lo, hi = gr.ranges.(k) in
  let gc0 = Gc.quick_stat () in
  let cpu = cpu_seconds () in
  let rows, s = timed (fun () -> List.init (hi - lo) (fun i -> gr.trial (lo + i))) in
  let cpu = cpu_seconds () -. cpu in
  gr.minor <- gr.minor +. ((Gc.quick_stat ()).Gc.minor_words -. gc0.Gc.minor_words);
  gr.batches_done <- (rows, s, cpu) :: gr.batches_done

(* batch [k] of every game that has one, from a compacted heap *)
let batch runs k =
  Gc.compact ();
  List.iter (fun gr -> if k < Array.length gr.ranges then run_batch gr k) runs

let finish_game ~nproc ~seed ~traced r gr =
  let g = gr.cfg
  and packed = gr.packed in
  let timed_batches = List.rev gr.batches_done in
  let rows = List.concat_map (fun (rows, _, _) -> rows) timed_batches in
  let secs = List.fold_left (fun acc (_, s, _) -> acc +. s) 0.0 timed_batches in
  List.iter
    (fun t ->
      let ok = Checks.walk_trial ~game:packed ~alpha t in
      op r (Result.is_ok ok);
      check r ("walk " ^ g.game) ok)
    rows;
  let jobsn = Pool.create ~jobs:nproc in
  let parity = Mc_poa.run ~pool:jobsn ~game:g.game ~n:g.n ~alpha ~trials:g.parity_trials ~seed () in
  Pool.shutdown jobsn;
  check r ("walk parity " ^ g.game)
    (Checks.walk_rows
       ~jobs1:(csv packed ~n:g.n (List.filteri (fun i _ -> i < g.parity_trials) rows))
       ~jobsn:(csv packed ~n:g.n parity));
  (* Trials per CPU second of this process.  The walk runs on one
     domain, so that is its wall rate less the time the host stole from
     the cpu; on this benchmark's 2-cpu virtual machine the host stole
     0-17% of a run, and wall rates moved with it. *)
  let rates =
    List.map (fun (rows, _, cpu) -> float_of_int (List.length rows) /. cpu) timed_batches
  in
  log "walk %s n=%d: %d trials in %.3fs wall, %.3fs cpu; batch rates per cpu second %s" g.game g.n
    g.trials secs
    (List.fold_left (fun acc (_, _, c) -> acc +. c) 0.0 timed_batches)
    (String.concat " " (List.map (Printf.sprintf "%.4g") rates));
  (* the median batch, like the mix slices *)
  metric r (g.label ^ "_trials_per_s") "1/s" (median rates);
  if traced then begin
    let p = "walk." ^ g.label ^ "." in
    let sum f = float_of_int (List.fold_left (fun acc t -> acc + f t) 0 rows) in
    if Game.name packed = "bcg" then begin
      metric r (p ^ "trial_s") "s" (secs /. float_of_int g.trials);
      metric r (p ^ "evals") "count" (sum (fun t -> t.Mc_poa.evals));
      metric r (p ^ "moves") "count" (sum (fun t -> t.Mc_poa.moves));
      let sums =
        List.concat_map
          (fun t ->
            Nf_graph.Kernel.with_loaded t.Mc_poa.final (fun ws ->
                List.init 8 (fun _ -> snd (timed (fun () -> Nf_graph.Kernel.all_distance_sums ws)))))
          rows
      in
      metric r "kernel.all_sums_us" "us" (1e6 *. median sums)
    end
    else begin
      let steps, listed = replay r packed ~label:g.label ~n:g.n (List.hd rows) in
      metric r (p ^ "steps") "count" (sum (fun t -> t.Mc_poa.moves));
      metric r (p ^ "moves_listed_per_step") "count" (float_of_int listed /. float_of_int (max 1 steps));
      metric r (p ^ "step_ms") "ms" (1e3 *. Trace.total (p ^ "step") /. float_of_int (max 1 steps))
    end
  end

(* A known fault: Kernel.all_distance_sums goes wrong once the calling
   domain's workspace has held a larger graph.  One probe per mix round,
   all of a slice's in one fresh domain: the sums of a 64-vertex cycle,
   then of the n-vertex cycle, checked against all-pairs BFS.  A wrong
   sum counts as a failed operation, not as an incorrect run. *)
let kernel_probes r ~n ~count =
  let cycle k = Nf_graph.Graph.of_edges k (List.init k (fun i -> (i, (i + 1) mod k))) in
  let small = cycle n
  and large = cycle 64 in
  let sums g = Nf_graph.Kernel.with_loaded g (fun ws -> Array.copy (Nf_graph.Kernel.all_distance_sums ws)) in
  let got =
    Domain.join
      (Domain.spawn (fun () ->
           List.init count (fun _ ->
               ignore (sums large);
               sums small)))
  in
  List.iter (fun s -> op r (Result.is_ok (Checks.distance_sums small s))) got

let finish ~nproc ~seed ~traced r runs =
  List.iter (finish_game ~nproc ~seed ~traced r) runs;
  if traced then
    metric r "gc.walk_minor_words" "words" (List.fold_left (fun acc gr -> acc +. gr.minor) 0.0 runs)

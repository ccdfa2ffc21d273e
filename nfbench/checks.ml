(* The benchmark's correctness checks.  Each compares a program output
   with a computation made apart from the code path under test (a
   reference annotator, a linear filter, a certifier, an independent
   cost formula) or with a property the method must have.  Every checker
   returns [Ok ()] or [Error reason]; test_checks.ml feeds each one a
   deliberately wrong answer. *)

module Rat = Nf_util.Rat
module Interval = Nf_util.Interval
module Layout = Nf_store.Layout
module Graph = Nf_graph.Graph
module Graph6 = Nf_graph.Graph6
module Game = Netform.Game

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt
let ( let* ) = Result.bind

(* A001349: connected graphs on n unlabeled vertices, n = 0 .. 10 *)
let a001349 = [| 1; 1; 1; 2; 6; 21; 112; 853; 11117; 261080; 11716571 |]

let class_count ~n ~records =
  if n < 0 || n >= Array.length a001349 then fail "no A001349 constant for n = %d" n
  else if records = a001349.(n) then Ok ()
  else fail "%d classes at n = %d, A001349 says %d" records n a001349.(n)

(* equal string lists, or the first position where they part *)
let same_strings ~what expected got =
  let rec go i = function
    | [], [] -> Ok ()
    | e :: _, [] -> fail "%s: %S missing at position %d" what e i
    | [], g :: _ -> fail "%s: unexpected %S at position %d" what g i
    | e :: es, g :: gs ->
      if e = g then go (i + 1) (es, gs)
      else fail "%s: %S where %S expected at position %d" what g e i
  in
  go 0 (expected, got)

let stable_at ~expected ~got =
  if List.length expected <> List.length got then
    fail "stable-at: %d graphs where %d expected" (List.length got) (List.length expected)
  else same_strings ~what:"stable-at" expected got

(* the region the reference annotator computes from the decoded graph *)
let record_region ~with_ucg (r : Layout.record) =
  let g = Graph6.decode r.Layout.graph6 in
  let bcg = Netform.Bcg.stable_alpha_set_reference g in
  if not (Interval.equal bcg r.Layout.bcg) then
    fail "%s: stored BCG region %s, reference %s" r.Layout.graph6 (Interval.to_string r.Layout.bcg)
      (Interval.to_string bcg)
  else if not with_ucg then Ok ()
  else
    let ucg = Netform.Ucg.nash_alpha_set_reference g in
    match r.Layout.ucg with
    | Some u when Interval.Union.equal u ucg -> Ok ()
    | Some u ->
      fail "%s: stored UCG region %s, reference %s" r.Layout.graph6 (Interval.Union.to_string u)
        (Interval.Union.to_string ucg)
    | None -> fail "%s: UCG region missing" r.Layout.graph6

(* membership at [alpha] agrees with the point certifiers *)
let membership ~with_ucg ~alpha (r : Layout.record) =
  let g = Graph6.decode r.Layout.graph6 in
  let stored = Interval.mem alpha r.Layout.bcg
  and cert = Netform.Bcg.is_pairwise_stable ~alpha g in
  if stored <> cert then
    fail "%s at alpha %s: region says %b, is_pairwise_stable says %b" r.Layout.graph6
      (Rat.to_string alpha) stored cert
  else if not with_ucg then Ok ()
  else
    let stored = Option.fold ~none:false ~some:(Interval.Union.mem alpha) r.Layout.ucg
    and cert = Netform.Ucg.is_nash_graph ~alpha g in
    if stored <> cert then
      fail "%s at alpha %s: UCG region says %b, is_nash_graph says %b" r.Layout.graph6
        (Rat.to_string alpha) stored cert
    else Ok ()

(* the graph6 strings of the records whose region column holds [alpha],
   in record order: a linear filter that never touches the α-index *)
let naive_stable ~column records alpha =
  Array.fold_right
    (fun (r : Layout.record) acc ->
      let hit =
        match column with
        | `Bcg -> Interval.mem alpha r.Layout.bcg
        | `Ucg -> Option.fold ~none:false ~some:(Interval.Union.mem alpha) r.Layout.ucg
      in
      if hit then r.Layout.graph6 :: acc else acc)
    records []

(* an entry response: the record id and one exact region string per column *)
let entry ~id ~regions json =
  let module J = Nf_serve.Json in
  if not (Nf_serve.Protocol.response_ok json) then
    fail "entry: error response %s" (Nf_serve.Protocol.response_error json)
  else
    let* got_id = Option.to_result ~none:"entry: no id" (Option.bind (J.member "id" json) J.to_int) in
    if got_id <> id then fail "entry: id %d where %d expected" got_id id
    else
      match J.member "regions" json with
      | Some (J.Obj fields) ->
        let got = List.map (fun (k, v) -> (k, Option.value ~default:"?" (J.to_str v))) fields in
        if got = regions then Ok ()
        else
          fail "entry %d: regions [%s] where [%s] expected" id
            (String.concat "; " (List.map (fun (k, v) -> k ^ " " ^ v) got))
            (String.concat "; " (List.map (fun (k, v) -> k ^ " " ^ v) regions))
      | _ -> fail "entry %d: no regions object" id

(* the merged store is byte-identical to the single-process one and
   passes strict verification *)
let merged_store ~reference ~merged_path =
  let merged = Common.read_file merged_path in
  let lr = String.length reference
  and lm = String.length merged in
  let rec first_diff i =
    if i >= lr || i >= lm || reference.[i] <> merged.[i] then i else first_diff (i + 1)
  in
  if lr <> lm || reference <> merged then
    fail "merged store differs from the jobs=1 store at byte %d (%d vs %d bytes)" (first_diff 0) lm lr
  else
    match Nf_store.Reader.verify ~path:merged_path with
    | Ok _ -> Ok ()
    | Error msg -> fail "merged store fails verification: %s" msg

(* ---- exact comparison without overflow ---- *)

(* [Rat.compare] cross-multiplies, which overflows for components near
   max_int; continued-fraction descent compares non-negative p/q and r/s
   with nothing but division and remainder *)
let rec cf_compare (a, b) (c, d) =
  let qa = a / b
  and qc = c / d in
  if qa <> qc then compare qa qc
  else
    let ra = a mod b
    and rc = c mod d in
    match (ra = 0, rc = 0) with
    | true, true -> 0
    | true, false -> -1
    | false, true -> 1
    | false, false -> cf_compare (d, rc) (b, ra)

let exact_compare x y = cf_compare (Rat.num x, Rat.den x) (Rat.num y, Rat.den y)

(* A small-denominator α answering like [probe]: the answer is constant
   on each elementary interval between consecutive region endpoints, so
   any rational strictly between the endpoints around [probe] (or the
   endpoint itself, when [probe] is one) must give the same answer.
   [endpoints] are sorted, non-negative and small. *)
let representative ~endpoints probe =
  let below = List.filter (fun e -> exact_compare e probe < 0) endpoints
  and above = List.filter (fun e -> exact_compare e probe > 0) endpoints in
  match List.find_opt (fun e -> exact_compare e probe = 0) endpoints with
  | Some e -> e
  | None ->
    let lo = List.fold_left (fun _ e -> e) Rat.zero below in
    let rec search q =
      let p = (Rat.num lo * q / Rat.den lo) + 1 in
      let c = Rat.make p q in
      match above with
      | hi :: _ when Rat.compare c hi >= 0 -> search (q + 1)
      | _ -> c
    in
    search 1

(* ---- walks ---- *)

(* social cost from the final graph alone: all-pairs BFS distances, the
   game's link-payment multiplier, and for the adversary model the
   edge-removal separation sums of the specification twin *)
let social_cost ~game ~alpha g =
  let (Game.Any (module G)) = game in
  let d = Nf_graph.Apsp.all_distances g in
  if Array.exists (Array.exists (fun x -> x < 0)) d then None
  else
    let w = Array.fold_left (Array.fold_left ( + )) 0 d
    and m = Graph.size g in
    let mult = match G.cost_model with Netform.Cost.Ucg -> 1 | _ -> 2 in
    let base = Rat.add (Rat.mul (Rat.of_int (mult * m)) alpha) (Rat.of_int w) in
    match G.cost_model with
    | Netform.Cost.Adversary when m > 0 ->
      let s = Netform.Adversary.separation_sums_naive g in
      Some (Rat.add base (Rat.make (Array.fold_left ( + ) 0 s) m))
    | _ -> Some base

(* per-vertex distance sums against all-pairs BFS *)
let distance_sums g sums =
  let expected = Array.map (Array.fold_left ( + ) 0) (Nf_graph.Apsp.all_distances g) in
  if sums = expected then Ok ()
  else
    fail "distance sums %s, all-pairs BFS gives %s"
      (String.concat "," (List.map string_of_int (Array.to_list sums)))
      (String.concat "," (List.map string_of_int (Array.to_list expected)))

let walk_trial ~game ~alpha (t : Nf_dynamics.Mc_poa.trial) =
  let open Nf_dynamics.Mc_poa in
  if not t.converged then fail "trial %d did not converge" t.index
  else
    let stable =
      if Game.name game = "bcg" then Netform.Bcg.is_pairwise_stable ~alpha t.final
      else Game.is_stable game ~alpha t.final
    in
    if not stable then fail "trial %d: final graph is not stable for %s" t.index (Game.name game)
    else
      match (t.social_cost, social_cost ~game ~alpha t.final, t.poa) with
      | Some reported, Some recomputed, Some poa ->
        if not (Rat.equal reported recomputed) then
          fail "trial %d: reported social cost %s, recomputed %s" t.index (Rat.to_string reported)
            (Rat.to_string recomputed)
        else
          let (Game.Any (module G)) = game in
          let baseline = baseline_cost ~cost_model:G.cost_model ~alpha (Graph.order t.final) in
          if not (Rat.equal poa (Rat.div recomputed baseline)) then
            fail "trial %d: PoA %s is not cost / baseline" t.index (Rat.to_string poa)
          (* the baseline is the true optimum (star or clique) for the
             classic cost models only; C4 undercuts it in the adversary
             model, so a ratio below 1 is no fault there *)
          else if G.cost_model <> Netform.Cost.Adversary && Rat.compare poa Rat.one < 0 then
            fail "trial %d: PoA %s below 1" t.index (Rat.to_string poa)
          else Ok ()
      | _ -> fail "trial %d: final graph disconnected or cost missing" t.index

let walk_rows ~jobs1 ~jobsn =
  if jobs1 = jobsn then Ok ()
  else fail "walk rows differ between jobs=1 and jobs=nproc:\n%s\nvs\n%s" jobs1 jobsn

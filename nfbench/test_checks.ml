(* Every checker of the benchmark accepts the program's own answer and
   rejects a deliberately wrong one. *)

open Nfbench
module Rat = Nf_util.Rat
module Interval = Nf_util.Interval
module Layout = Nf_store.Layout

let is_ok = function Ok () -> true | Error _ -> false
let accepts what r = Alcotest.(check bool) (what ^ " accepted") true (is_ok r)
let rejects what r = Alcotest.(check bool) (what ^ " rejected") false (is_ok r)

let dir = "test_checks.work"

let stores =
  lazy
    (Common.rm_rf dir;
     Common.mkdir_p dir;
     let path name = Filename.concat dir name in
     ignore (Nf_store.Build.build ~with_ucg:true ~path:(path "j1.store") ~n:5 ());
     let shards =
       List.map
         (fun i ->
           let p = path (Printf.sprintf "shard-%d.store" i) in
           ignore (Nf_store.Build.build ~with_ucg:true ~shard:(i, 2) ~path:p ~n:5 ());
           p)
         [ 1; 2 ]
     in
     ignore (Nf_store.Merge.merge ~streaming:true ~paths:shards ~out:(path "merged.store") ());
     (path "j1.store", path "merged.store"))

let records () = snd (Nf_store.Reader.load ~path:(snd (Lazy.force stores)))

let test_class_count () =
  accepts "A001349 count" (Checks.class_count ~n:5 ~records:(Array.length (records ())));
  rejects "one class short" (Checks.class_count ~n:5 ~records:20)

let test_dropped_id () =
  let expected = Checks.naive_stable ~column:`Bcg (records ()) Rat.one in
  accepts "full answer" (Checks.stable_at ~expected ~got:expected);
  rejects "answer with an id dropped" (Checks.stable_at ~expected ~got:(List.tl expected));
  rejects "answer reordered" (Checks.stable_at ~expected ~got:(List.rev expected))

let test_shifted_endpoint () =
  let r = (records ()).(3) in
  accepts "stored region" (Checks.record_region ~with_ucg:true r);
  let shifted =
    match Interval.bounds r.Layout.bcg with
    | Some (Interval.Finite lo, lc, hi, hc) ->
      Interval.make ~lo:(Interval.Finite (Rat.add lo (Rat.make 1 1000))) ~lo_closed:lc ~hi ~hi_closed:hc
    | _ -> Alcotest.fail "record 3 has no finite lower endpoint"
  in
  rejects "region with a shifted endpoint"
    (Checks.record_region ~with_ucg:false { r with Layout.bcg = shifted })

let test_entry () =
  let r = (records ()).(2) in
  let regions = Nf_serve.Service.region_strings_of ~content:(Layout.Classic { with_ucg = true }) r in
  let answer id regions =
    Nf_serve.Protocol.ok_response
      [
        ("id", Nf_serve.Json.Int id);
        ("regions", Nf_serve.Json.Obj (List.map (fun (k, v) -> (k, Nf_serve.Json.Str v)) regions));
      ]
  in
  accepts "entry" (Checks.entry ~id:2 ~regions (answer 2 regions));
  rejects "entry with another id" (Checks.entry ~id:2 ~regions (answer 3 regions));
  rejects "entry with another region"
    (Checks.entry ~id:2 ~regions (answer 2 (List.map (fun (k, _) -> (k, "[0, 1]")) regions)))

let test_walk () =
  let alpha = Rat.of_int 2 in
  List.iter
    (fun name ->
      let game = Netform.Game_registry.find_exn name in
      let t = List.hd (Nf_dynamics.Mc_poa.run ~game:name ~n:10 ~alpha ~trials:1 ~seed:3 ()) in
      accepts (name ^ " trial") (Checks.walk_trial ~game ~alpha t);
      let path = Nf_graph.Graph.of_edges 10 (List.init 9 (fun i -> (i, i + 1))) in
      rejects (name ^ " trial ending on an unstable graph")
        (Checks.walk_trial ~game ~alpha { t with Nf_dynamics.Mc_poa.final = path });
      rejects (name ^ " trial with a wrong cost")
        (Checks.walk_trial ~game ~alpha
           { t with Nf_dynamics.Mc_poa.social_cost = Option.map (Rat.add Rat.one) t.social_cost }))
    [ "bcg"; "coalition:k=2"; "adversary" ];
  rejects "different walk rows" (Checks.walk_rows ~jobs1:"a\n1\n" ~jobsn:"a\n2\n")

let test_distance_sums () =
  let c9 = Nf_graph.Graph.of_edges 9 (List.init 9 (fun i -> (i, (i + 1) mod 9))) in
  (* every vertex of C9 has distance sum 2 (1 + 2 + 3 + 4) = 20 *)
  accepts "C9 sums" (Checks.distance_sums c9 (Array.make 9 20));
  let wrong = Array.make 9 20 in
  wrong.(4) <- 21;
  rejects "C9 sums with one vertex off" (Checks.distance_sums c9 wrong)

let flip_byte ~src ~dst pos =
  let b = Bytes.of_string (Common.read_file src) in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_bytes oc b)

let test_merged_store () =
  let j1, merged = Lazy.force stores in
  let reference = Common.read_file j1 in
  accepts "merged store" (Checks.merged_store ~reference ~merged_path:merged);
  let damaged = Filename.concat dir "damaged.store" in
  flip_byte ~src:merged ~dst:damaged (String.length reference / 2);
  rejects "merged store with one byte changed" (Checks.merged_store ~reference ~merged_path:damaged);
  (* the same byte changed on both sides: equal bytes, but no valid store *)
  rejects "both stores with one byte changed"
    (Checks.merged_store ~reference:(Common.read_file damaged) ~merged_path:damaged)

let test_exact_compare () =
  let m = max_int in
  let above_one = Rat.make m (m - 1) in
  Alcotest.(check int) "just above 1" 1 (Checks.exact_compare above_one Rat.one);
  Alcotest.(check int) "just below 1" (-1) (Checks.exact_compare (Rat.make (m - 1) m) Rat.one);
  Alcotest.(check int) "equal" 0 (Checks.exact_compare (Rat.make 3 2) (Rat.make 6 4));
  let endpoints = [ Rat.make 1 2; Rat.one; Rat.of_int 2 ] in
  Alcotest.(check string) "representative above 1" "3/2"
    (Rat.to_string (Checks.representative ~endpoints above_one));
  Alcotest.(check string) "an endpoint represents itself" "1"
    (Rat.to_string (Checks.representative ~endpoints Rat.one))

let () =
  Alcotest.run "nfbench checks"
    [
      ( "checks",
        [
          Alcotest.test_case "class count" `Quick test_class_count;
          Alcotest.test_case "dropped stable-at id" `Quick test_dropped_id;
          Alcotest.test_case "shifted region endpoint" `Quick test_shifted_endpoint;
          Alcotest.test_case "entry" `Quick test_entry;
          Alcotest.test_case "walk final graph" `Quick test_walk;
          Alcotest.test_case "kernel distance sums" `Quick test_distance_sums;
          Alcotest.test_case "merged store byte" `Quick test_merged_store;
          Alcotest.test_case "exact compare" `Quick test_exact_compare;
        ] );
    ]

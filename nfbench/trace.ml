(* Spans around public layer calls made from the benchmark's own code.

   Off by default, when [span name f] is just [f ()].  When enabled, every
   span records (id, name, start, stop, parent), parents coming from the
   dynamic nesting of [span] calls, so a stage's self time (its duration
   minus its children's) can be read back — enumeration is a push
   iterator whose callback runs the other stages, and only its self time
   is enumeration. *)

type span = { id : int; name : string; start : float; stop : float; parent : int }

let enabled = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = Common.now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Common.now () in
        stack := List.tl !stack;
        spans := { id; name; start; stop; parent } :: !spans)
      f
  end

let duration s = s.stop -. s.start

let named name = List.filter (fun s -> s.name = name) !spans

let total name = List.fold_left (fun acc s -> acc +. duration s) 0.0 (named name)

(* summed duration minus the time spent in directly nested spans *)
let self_total name =
  let own = named name in
  let ids = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace ids s.id ()) own;
  let children =
    List.fold_left
      (fun acc s -> if Hashtbl.mem ids s.parent then acc +. duration s else acc)
      0.0 !spans
  in
  List.fold_left (fun acc s -> acc +. duration s) 0.0 own -. children

let write path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "id\tname\tstart\tend\tparent\n";
      List.iter
        (fun s -> Printf.fprintf oc "%d\t%s\t%.6f\t%.6f\t%d\n" s.id s.name s.start s.stop s.parent)
        (List.rev !spans))

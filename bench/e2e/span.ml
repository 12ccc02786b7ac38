(* In-memory span recorder for the traced repetition.

   A span is (id, parent id, name, attribute, start, stop) in
   [Unix.gettimeofday] seconds; [with_span] nests through a stack.
   Every traced call runs on the main domain.  Nothing is recorded
   unless [enabled] is set, so untraced repetitions pay one bool load
   per call site. *)

type t = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  attr : string;  (** "" when absent, e.g. the posterior path taken *)
  start : float;
  stop : float;
}

let enabled = ref false
let spans : t list ref = ref []
let next_id = ref 1
let stack : int list ref = ref []

let with_span ?(attr = fun _ -> "") name f =
  if not !enabled then f ()
  else begin
    let id = !next_id and parent = match !stack with p :: _ -> p | [] -> 0 in
    incr next_id;
    stack := id :: !stack;
    let start = Unix.gettimeofday () in
    let finish attr =
      stack := List.tl !stack;
      spans := { id; parent; name; attr; start; stop = Unix.gettimeofday () } :: !spans
    in
    match f () with
    | v ->
        finish (attr v);
        v
    | exception e ->
        finish "raised";
        raise e
  end

let reset () =
  spans := [];
  next_id := 1;
  stack := []

let all () = List.rev !spans
let duration s = s.stop -. s.start
let named name = List.filter (fun s -> s.name = name) (all ())
let total name = List.fold_left (fun acc s -> acc +. duration s) 0.0 (named name)
let count name = List.length (named name)
let count_attr name attr =
  List.length (List.filter (fun s -> s.attr = attr) (named name))
let max_duration name =
  List.fold_left (fun acc s -> Float.max acc (duration s)) 0.0 (named name)

(* Share of [root]'s wall time covered by its direct children. *)
let coverage root =
  let covered =
    List.fold_left
      (fun acc s -> if s.parent = root.id then acc +. duration s else acc)
      0.0 (all ())
  in
  covered /. Float.max (duration root) 1e-12

(* Every span's parent exists and encloses it in time. *)
let well_nested () =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) (all ());
  List.for_all
    (fun s ->
      s.stop >= s.start
      && (s.parent = 0
         ||
         match Hashtbl.find_opt by_id s.parent with
         | None -> false
         | Some p -> s.start >= p.start && s.stop <= p.stop))
    (all ())

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"attr\":%S,\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.parent s.name s.attr s.start s.stop)
    (all ());
  close_out oc

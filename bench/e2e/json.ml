(* Minimal JSON reader: enough for the server's stats reply and for
   checking BENCHMARK.json against the metric table.  Raises [Failure]
   on malformed input. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail what = failwith (Printf.sprintf "json: %s at byte %d" what !pos) in
  let rec skip () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r')
    then (incr pos; skip ())
  in
  let expect c = skip (); if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v)
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      if c = '"' then ()
      else if c = '\\' then begin
        if !pos >= n then fail "bad escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
            if !pos + 4 > n then fail "bad \\u escape";
            let code = int_of_string ("0x" ^ String.sub s !pos 4) in
            pos := !pos + 4;
            if code < 128 then Buffer.add_char b (Char.chr code)
            else Buffer.add_char b '?'
        | c -> Buffer.add_char b c);
        go ()
      end
      else (Buffer.add_char b c; go ())
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && (match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        skip ();
        if !pos < n && s.[!pos] = '}' then (incr pos; Obj [])
        else
          let rec members acc =
            let k = string () in
            expect ':';
            let v = value () in
            skip ();
            if !pos < n && s.[!pos] = ',' then (incr pos; members ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          members []
    | '[' ->
        incr pos;
        skip ();
        if !pos < n && s.[!pos] = ']' then (incr pos; Arr [])
        else
          let rec elems acc =
            let v = value () in
            skip ();
            if !pos < n && s.[!pos] = ',' then (incr pos; elems (v :: acc))
            else (expect ']'; Arr (List.rev (v :: acc)))
          in
          elems []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (number ())
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing bytes";
  v

let member k = function
  | Obj kvs -> ( match List.assoc_opt k kvs with Some v -> v | None -> Null)
  | _ -> Null

let path keys v = List.fold_left (fun v k -> member k v) v keys
let to_num = function Num f -> f | _ -> failwith "json: not a number"
let to_str = function Str s -> s | _ -> failwith "json: not a string"
let to_list = function Arr l -> l | _ -> failwith "json: not an array"

(* A float as JSON: every digit, so no two measurements collide by
   rounding. *)
let number f = Printf.sprintf "%.17g" f

open Cbmf_linalg

type node = int

type element =
  | Conductance of node * node * float
  | Capacitance of node * node * float
  | Inductance of node * node * float
  | Vccs of { op : node; on : node; cp : node; cn : node; gm : float }

type t = {
  mutable names : string list; (* reversed; ground excluded *)
  mutable n_nodes : int; (* including ground *)
  mutable elements : element list;
}

let create () = { names = []; n_nodes = 1; elements = [] }

let ground = 0

let fresh_node ckt name =
  let id = ckt.n_nodes in
  ckt.n_nodes <- id + 1;
  ckt.names <- name :: ckt.names;
  id

let node_count ckt = ckt.n_nodes

(* Input validation raises [Invalid_argument] naming the offending
   node/element — [assert] would vanish under [-noassert], letting
   release builds stamp garbage netlists into the MNA system. *)
let check_node ckt ~elem n =
  if n < 0 || n >= ckt.n_nodes then
    invalid_arg
      (Printf.sprintf "Mna.%s: node %d out of range [0, %d)" elem n
         ckt.n_nodes)

let check_value ~elem ~what ?(strict = false) v =
  if (not (Float.is_finite v)) || (if strict then v <= 0.0 else v < 0.0) then
    invalid_arg
      (Printf.sprintf "Mna.%s: %s %g must be %s and finite" elem what v
         (if strict then "positive" else "non-negative"))

let node_name ckt n =
  check_node ckt ~elem:"node_name" n;
  if n = 0 then "gnd" else List.nth ckt.names (ckt.n_nodes - 1 - n)

let conductance ckt a b g =
  check_node ckt ~elem:"conductance" a;
  check_node ckt ~elem:"conductance" b;
  check_value ~elem:"conductance" ~what:"conductance" g;
  ckt.elements <- Conductance (a, b, g) :: ckt.elements

let resistor ckt a b r =
  check_value ~elem:"resistor" ~what:"resistance" ~strict:true r;
  conductance ckt a b (1.0 /. r)

let capacitor ckt a b c =
  check_node ckt ~elem:"capacitor" a;
  check_node ckt ~elem:"capacitor" b;
  check_value ~elem:"capacitor" ~what:"capacitance" c;
  ckt.elements <- Capacitance (a, b, c) :: ckt.elements

let inductor ckt a b l =
  check_node ckt ~elem:"inductor" a;
  check_node ckt ~elem:"inductor" b;
  check_value ~elem:"inductor" ~what:"inductance" ~strict:true l;
  ckt.elements <- Inductance (a, b, l) :: ckt.elements

let vccs ckt ~out_pos ~out_neg ~ctrl_pos ~ctrl_neg ~gm =
  check_node ckt ~elem:"vccs" out_pos;
  check_node ckt ~elem:"vccs" out_neg;
  check_node ckt ~elem:"vccs" ctrl_pos;
  check_node ckt ~elem:"vccs" ctrl_neg;
  if not (Float.is_finite gm) then
    invalid_arg (Printf.sprintf "Mna.vccs: transconductance %g must be finite" gm);
  ckt.elements <- Vccs { op = out_pos; on = out_neg; cp = ctrl_pos; cn = ctrl_neg; gm } :: ckt.elements

type analysis = { lu : Clu.t; n_nodes : int }

exception Singular_circuit

(* Matrix index of a node (ground has none). *)
let idx n = n - 1

let stamp_admittance y a b (c : Complex.t) =
  if a <> ground then Cmat.add_at y (idx a) (idx a) c;
  if b <> ground then Cmat.add_at y (idx b) (idx b) c;
  if a <> ground && b <> ground then begin
    Cmat.add_at y (idx a) (idx b) (Complex.neg c);
    Cmat.add_at y (idx b) (idx a) (Complex.neg c)
  end

let ac (ckt : t) ~freq =
  if not (Float.is_finite freq) || freq <= 0.0 then
    invalid_arg (Printf.sprintf "Mna.ac: frequency %g must be positive and finite" freq);
  let omega = 2.0 *. Float.pi *. freq in
  let n = ckt.n_nodes - 1 in
  if n <= 0 then invalid_arg "Mna.ac: circuit has no non-ground nodes";
  let y = Cmat.create n n in
  let stamp = function
    | Conductance (a, b, g) -> stamp_admittance y a b { Complex.re = g; im = 0.0 }
    | Capacitance (a, b, c) ->
        stamp_admittance y a b { Complex.re = 0.0; im = omega *. c }
    | Inductance (a, b, l) ->
        stamp_admittance y a b { Complex.re = 0.0; im = -1.0 /. (omega *. l) }
    | Vccs { op; on; cp; cn; gm } ->
        let add i j v =
          if i <> ground && j <> ground then
            Cmat.add_at y (idx i) (idx j) { Complex.re = v; im = 0.0 }
        in
        add op cp gm;
        add op cn (-.gm);
        add on cp (-.gm);
        add on cn gm
  in
  List.iter stamp ckt.elements;
  if Cbmf_robust.Inject.fire ~site:"mna.solve" then raise Singular_circuit;
  match Clu.factorize y with
  | lu -> { lu; n_nodes = ckt.n_nodes }
  | exception Clu.Singular _ -> raise Singular_circuit

let solve_injection a ~pos ~neg =
  let n = a.n_nodes - 1 in
  let b = Cmat.vec_create n in
  if pos <> ground then Cmat.vec_add_at b (idx pos) Complex.one;
  if neg <> ground then Cmat.vec_add_at b (idx neg) { Complex.re = -1.0; im = 0.0 };
  let x = Clu.solve_vec a.lu b in
  Array.init a.n_nodes (fun i ->
      if i = 0 then Complex.zero else Cmat.vec_get x (i - 1))

let voltage sol n = sol.(n)

let differential sol p n = Complex.sub sol.(p) sol.(n)

(** Dense real vectors backed by [float array].

    The representation is transparent so that hot loops elsewhere in the
    code base can index directly; all functions here treat the array as a
    mathematical vector and never retain their arguments unless
    documented. *)

type t = float array

(** {1 Construction} *)

val create : int -> t
(** [create n] is a fresh zero vector of length [n]. *)

val init : int -> (int -> float) -> t
(** [init n f] is [| f 0; ...; f (n-1) |]. *)

val make : int -> float -> t
(** [make n c] is a length-[n] vector filled with [c]. *)

val copy : t -> t
(** Fresh copy. *)

val of_list : float list -> t

val basis : int -> int -> t
(** [basis n i] is the [i]-th canonical basis vector of length [n]. *)

val linspace : float -> float -> int -> t
(** [linspace a b n] is [n] points evenly spaced from [a] to [b]
    inclusive. Requires [n >= 2]. *)

(** {1 Size and access} *)

val dim : t -> int

val get : t -> int -> float

val set : t -> int -> float -> unit

(** {1 In-place updates} *)

val fill : t -> float -> unit

val blit : src:t -> dst:t -> unit
(** Copy [src] into [dst]; dimensions must match. *)

val scale_inplace : t -> float -> unit

val add_inplace : t -> t -> unit
(** [add_inplace x y] sets [x <- x + y]. *)

val sub_inplace : t -> t -> unit
(** [sub_inplace x y] sets [x <- x - y]. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] sets [y <- a*x + y]. *)

(** {1 Functional operations} *)

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val neg : t -> t

val map : (float -> float) -> t -> t

val mul : t -> t -> t
(** Element-wise (Hadamard) product. *)

(** {1 Reductions} *)

val dot : t -> t -> float

val norm2 : t -> float
(** Euclidean norm. *)

val norm2_sq : t -> float
(** Squared Euclidean norm. *)

val norm1 : t -> float

val norm_inf : t -> float

val sum : t -> float

val mean : t -> float

val min : t -> float

val max : t -> float

val argmax : t -> int
(** Index of the (first) maximum element. Requires a non-empty vector. *)

val argmin : t -> int

val fold : ('a -> float -> 'a) -> 'a -> t -> 'a

(** {1 Comparisons} *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Component-wise comparison with absolute tolerance [tol]
    (default [1e-9]); [false] if dimensions differ. *)

val dist : t -> t -> float
(** Euclidean distance. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

(* Fixture: unchecked-access. *)

let first a = Array.unsafe_get a 0
let poke b i = Bytes.unsafe_set b i 'x'
let char_at s i = Stdlib.String.unsafe_get s i
let checked a i = a.(i)
let copy_out b = Bytes.unsafe_to_string b

(* In range: [i] runs over the indices of [a]. *)
let sum a =
  let s = ref 0 in
  for i = 0 to Array.length a - 1 do
    s := !s + Array.unsafe_get a i
  done;
  !s
[@@lint.allow "unchecked-access"]

(* Through an open: a bare name fires as the qualified one does. *)
let opened a =
  let open Array in
  unsafe_get a 0

let local_open a i = Array.(unsafe_set a i 0)

(* Order statistics over samples.

   Percentiles use the nearest-rank rule: the q-th percentile of n
   sorted samples is the element at rank ceil(q/100 * n). The samples
   strictly above that rank are the ones "beyond" it; a tail percentile
   with fewer than ten of them is an estimate from a handful of points,
   and is flagged as such wherever it is printed. *)

let rank ~q n =
  if n <= 0 then invalid_arg "Stats.rank: no samples";
  let r = int_of_float (Float.ceil (q /. 100. *. float_of_int n)) in
  max 1 (min n r)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

let percentile samples ~q =
  let a = sorted samples in
  a.(rank ~q (Array.length a) - 1)

let median samples = percentile samples ~q:50.

let mean = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

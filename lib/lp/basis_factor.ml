open Rtt_num

type svec = (int * Rat.t) array

(* One elementary (eta) matrix: the identity with column [e_row]
   replaced by the FTRANed entering column w. [e_diag] is w's pivot
   entry w_r, [e_off] its remaining nonzeros (row, value), ascending.
   FTRAN applies E: x_r' = x_r / w_r, x_i' = x_i - w_i * x_r'.
   BTRAN applies Eᵀ: y_r' = (y_r - Σ_{i≠r} w_i y_i) / w_r. *)
type eta = { e_row : int; e_diag : Rat.t; e_off : (int * Rat.t) array }

let dummy_eta = { e_row = 0; e_diag = Rat.one; e_off = [||] }

(* The factorization represents T = B⁻¹ as a product
     T = U_k · … · U_1 · P · L_j · … · L_1
   where the L are the etas of the last refactorization, P the row
   permutation that refactorization chose, and the U the per-pivot
   update etas appended since. FTRAN applies left-to-right from L_1;
   BTRAN applies the transposes in the opposite order. *)
type t = {
  m : int;
  mutable base : eta array; (* refactorization etas, application order *)
  mutable perm : int array option; (* rho: FTRAN position i reads row rho.(i) *)
  mutable upd : eta array; (* update etas, upd.(0 .. n_upd-1) in application order *)
  mutable n_upd : int;
  scratch : Rat.t array; (* for applying the permutation in place *)
}

(* cumulative, process-global — reset alongside Simplex.reset_stats *)
let refactors = ref 0
let appended = ref 0
let peak = ref 0
let refactor_count () = !refactors
let eta_appends () = !appended
let eta_peak () = !peak

let reset_stats () =
  refactors := 0;
  appended := 0;
  peak := 0

let eta_limit = ref 32

let create m =
  { m; base = [||]; perm = None; upd = [||]; n_upd = 0; scratch = Array.make m Rat.zero }

let size t = t.m
let eta_length t = Array.length t.base + t.n_upd
let should_refactor t = t.n_upd >= max !eta_limit (t.m / 4)

let apply_eta x e =
  let xr = x.(e.e_row) in
  if not (Rat.is_zero xr) then begin
    let xr = Rat.div xr e.e_diag in
    x.(e.e_row) <- xr;
    Array.iter (fun (i, wi) -> x.(i) <- Rat.sub x.(i) (Rat.mul wi xr)) e.e_off
  end

let apply_eta_t y e =
  let s = ref y.(e.e_row) in
  Array.iter
    (fun (i, wi) -> if not (Rat.is_zero y.(i)) then s := Rat.sub !s (Rat.mul wi y.(i)))
    e.e_off;
  y.(e.e_row) <- (if Rat.is_zero !s then Rat.zero else Rat.div !s e.e_diag)

let ftran t x =
  Array.iter (fun e -> apply_eta x e) t.base;
  (match t.perm with
  | None -> ()
  | Some rho ->
      let s = t.scratch in
      for i = 0 to t.m - 1 do
        s.(i) <- x.(rho.(i))
      done;
      Array.blit s 0 x 0 t.m);
  for k = 0 to t.n_upd - 1 do
    apply_eta x t.upd.(k)
  done

let btran t y =
  for k = t.n_upd - 1 downto 0 do
    apply_eta_t y t.upd.(k)
  done;
  (match t.perm with
  | None -> ()
  | Some rho ->
      let s = t.scratch in
      for i = 0 to t.m - 1 do
        s.(rho.(i)) <- y.(i)
      done;
      Array.blit s 0 y 0 t.m);
  for k = Array.length t.base - 1 downto 0 do
    apply_eta_t y t.base.(k)
  done

(* eta from a dense FTRANed column with pivot row [row]; w.(row) <> 0 *)
let eta_of_dense w ~row =
  let off = ref [] in
  for i = Array.length w - 1 downto 0 do
    if i <> row && not (Rat.is_zero w.(i)) then off := (i, w.(i)) :: !off
  done;
  { e_row = row; e_diag = w.(row); e_off = Array.of_list !off }

let note_append t =
  incr appended;
  let len = eta_length t in
  if len > !peak then peak := len

let pivot t ~w ~row =
  assert (not (Rat.is_zero w.(row)));
  if t.n_upd = Array.length t.upd then begin
    let cap = max 8 (2 * Array.length t.upd) in
    let fresh = Array.make cap dummy_eta in
    Array.blit t.upd 0 fresh 0 t.n_upd;
    t.upd <- fresh
  end;
  t.upd.(t.n_upd) <- eta_of_dense w ~row;
  t.n_upd <- t.n_upd + 1;
  note_append t

exception Singular

let refactor t ~col_of ~basis =
  let m = t.m in
  let etas = Array.make m dummy_eta in
  let used = Array.make m false in
  let rho = Array.make m 0 in
  let identity = ref true in
  let w = Array.make m Rat.zero in
  try
    for i = 0 to m - 1 do
      Array.fill w 0 m Rat.zero;
      Array.iter (fun (r, v) -> w.(r) <- v) (col_of basis.(i));
      for k = 0 to i - 1 do
        apply_eta w etas.(k)
      done;
      (* Prefer the natural pairing so P is usually the identity; any
         unused row with a nonzero entry keeps the elimination going,
         and if none exists the basis is singular (the column lies in
         the span of the ones already processed). *)
      let r =
        if (not used.(i)) && not (Rat.is_zero w.(i)) then i
        else begin
          let found = ref (-1) in
          (try
             for c = 0 to m - 1 do
               if (not used.(c)) && not (Rat.is_zero w.(c)) then begin
                 found := c;
                 raise Exit
               end
             done
           with Exit -> ());
          if !found < 0 then raise Singular;
          !found
        end
      in
      if r <> i then identity := false;
      used.(r) <- true;
      rho.(i) <- r;
      etas.(i) <- eta_of_dense w ~row:r
    done;
    t.base <- etas;
    t.perm <- (if !identity then None else Some rho);
    t.n_upd <- 0;
    incr refactors;
    let len = eta_length t in
    if len > !peak then peak := len;
    true
  with Singular -> false

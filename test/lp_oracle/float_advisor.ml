(* The reference float advisor: the same capped two-phase float
   simplex as {!Rtt_lp.Fsimplex}, over dense rows and with the textbook
   Gauss-Jordan pivot that rewrites every column of every row it
   touches, where the production advisor updates only the pivot row's
   nonzero columns. The dense oracle takes its advice from here, so
   every differential property also compares the two updates' advice.
   Test and bench code only. *)

let eps = 1e-9
let infeasibility_tol = 1e-7

(* classic Gauss-Jordan pivot over rows plus the objective row [z] *)
let pivot tableau z basis ~row ~col ~width =
  let m = Array.length tableau in
  let prow = tableau.(row) in
  let p = prow.(col) in
  for j = 0 to width - 1 do
    prow.(j) <- prow.(j) /. p
  done;
  for i = 0 to m - 1 do
    if i <> row then begin
      let f = tableau.(i).(col) in
      if Float.abs f > 0.0 then
        for j = 0 to width - 1 do
          tableau.(i).(j) <- tableau.(i).(j) -. (f *. prow.(j))
        done
    end
  done;
  let f = z.(col) in
  if Float.abs f > 0.0 then
    for j = 0 to width - 1 do
      z.(j) <- z.(j) -. (f *. prow.(j))
    done;
  basis.(row) <- col

(* Bland pricing (lowest index with negative reduced cost), mirroring
   the exact solver's seed rule pivot for pivot: when the floats track
   the exact signs — the common case on the paper's small integral
   instances — the final basis here is exactly the basis the exact
   Bland solve would reach, so the crash start reproduces the seed's
   canonical answer instead of some other optimal vertex. [allowed]
   masks columns that may enter. Returns [`Optimal], [`Unbounded], or
   [`GaveUp] when [fuel] runs dry. *)
let run_phase tableau z basis ~width ~allowed ~fuel =
  let m = Array.length tableau in
  let rhs = width - 1 in
  let rec loop fuel =
    if fuel <= 0 then `GaveUp
    else begin
      let entering = ref (-1) in
      (try
         for j = 0 to width - 2 do
           if allowed j && z.(j) < -.eps then begin
             entering := j;
             raise Exit
           end
         done
       with Exit -> ());
      if !entering < 0 then `Optimal
      else begin
        let col = !entering in
        let best_row = ref (-1) and best_ratio = ref infinity in
        for i = 0 to m - 1 do
          let a = tableau.(i).(col) in
          if a > eps then begin
            let ratio = tableau.(i).(rhs) /. a in
            if
              !best_row < 0
              || ratio < !best_ratio -. eps
              || (Float.abs (ratio -. !best_ratio) <= eps && basis.(i) < basis.(!best_row))
            then begin
              best_row := i;
              best_ratio := ratio
            end
          end
        done;
        if !best_row < 0 then `Unbounded
        else begin
          pivot tableau z basis ~row:!best_row ~col ~width;
          loop (fuel - 1)
        end
      end
    end
  in
  loop fuel

let solve ~rows ~n_real ~objective =
  let m = Array.length rows in
  if m = 0 then Some [||]
  else begin
    let n_total = n_real + m in
    let width = n_total + 1 in
    let rhs = n_total in
    let tableau = Array.make_matrix m width 0.0 in
    let basis = Array.make m 0 in
    Array.iteri
      (fun i row ->
        Array.blit row 0 tableau.(i) 0 n_real;
        tableau.(i).(rhs) <- row.(n_real);
        tableau.(i).(n_real + i) <- 1.0;
        basis.(i) <- n_real + i)
      rows;
    let is_artificial j = j >= n_real && j < n_total in
    (* phase 1: minimize the sum of artificials *)
    let z = Array.make width 0.0 in
    for j = 0 to width - 1 do
      let colsum = Array.fold_left (fun acc row -> acc +. row.(j)) 0.0 tableau in
      let cj = if is_artificial j then 1.0 else 0.0 in
      z.(j) <- (if j = rhs then 0.0 else cj) -. colsum
    done;
    let fuel = 200 + (40 * (m + n_real)) in
    match run_phase tableau z basis ~width ~allowed:(fun _ -> true) ~fuel with
    | `Unbounded | `GaveUp -> None
    | `Optimal ->
        if Float.abs z.(rhs) > infeasibility_tol then None (* looks infeasible: let the exact path decide *)
        else begin
          (* pivot leftover artificials onto any usable real column *)
          for i = 0 to m - 1 do
            if is_artificial basis.(i) then begin
              let found = ref (-1) in
              (try
                 for j = 0 to n_real - 1 do
                   if Float.abs tableau.(i).(j) > eps then begin
                     found := j;
                     raise Exit
                   end
                 done
               with Exit -> ());
              if !found >= 0 then pivot tableau z basis ~row:i ~col:!found ~width
            end
          done;
          (* phase 2 on the same tableau; artificials may not re-enter *)
          let z2 = Array.make width 0.0 in
          Array.blit objective 0 z2 0 (Array.length objective);
          Array.iteri
            (fun i b ->
              let cb = if b < Array.length objective then objective.(b) else 0.0 in
              if Float.abs cb > 0.0 then
                for j = 0 to width - 1 do
                  z2.(j) <- z2.(j) -. (cb *. tableau.(i).(j))
                done)
            basis;
          match run_phase tableau z2 basis ~width ~allowed:(fun j -> not (is_artificial j)) ~fuel with
          | `Unbounded | `GaveUp -> None
          | `Optimal ->
              (* rows still basic in an artificial are (per the floats)
                 redundant; report only the real assignments and let the
                 exact verifier prove the leftovers vanish *)
              let pairs = ref [] in
              for i = m - 1 downto 0 do
                if basis.(i) < n_real then pairs := (i, basis.(i)) :: !pairs
              done;
              Some (Array.of_list !pairs)
        end
  end


(* The on-time open-loop schedule.

   Request k is due at [t0 + k / rate] and is sent as soon as that
   moment has passed; between sends the generator sleeps only until
   the next due time, answering whatever arrives meanwhile. Latency is
   then timed from the due time, not the send time, so a stall in the
   generator or the daemon is charged to every request it delays
   instead of silently thinning the offered load. How late each send
   actually left is returned so the run can report it. *)

type clock = {
  now : unit -> float;
  wait : float -> unit;
      (** Block for at most this many seconds, handling any input that
          arrives meanwhile. May return early. *)
}

let due ~t0 ~rate k = t0 +. (float_of_int k /. rate)

(* Sends requests [0 .. count-1] on schedule; [send k ~due] transmits
   request k. Returns each request's lateness (send time minus due
   time, in seconds). *)
let open_loop clock ~t0 ~rate ~count ~send =
  if rate <= 0. then invalid_arg "Sched.open_loop: rate must be positive";
  let late = Array.make count 0. in
  let k = ref 0 in
  while !k < count do
    let d = due ~t0 ~rate !k in
    let now = clock.now () in
    if now >= d then begin
      late.(!k) <- now -. d;
      send !k ~due:d;
      incr k
    end
    else clock.wait (d -. now)
  done;
  late

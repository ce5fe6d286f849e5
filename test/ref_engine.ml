(* Reference model of Btr_sim.Engine, for differential testing.

   Deliberately naive, so it is easy to believe: the queue is a [Map]
   keyed by (time, insertion sequence), the minimum binding fires next,
   and cancelling removes the binding. It keeps the engine's observable
   contract — firing order, clock trajectory, [pending],
   [events_processed] and the sim.engine.{scheduled,fired,cancelled}
   counters — and none of its machinery (no wheel, no cell pool, no
   counters beyond those three). *)

open Btr_util
module Obs = Btr_obs.Obs

module Key = struct
  type t = Time.t * int

  let compare (a1, s1) (a2, s2) =
    match Time.compare a1 a2 with 0 -> Int.compare s1 s2 | c -> c
end

module Q = Map.Make (Key)

type t = {
  mutable clock : Time.t;
  mutable queue : handle Q.t;
  mutable next_seq : int;
  mutable processed : int;
  obs : Obs.t;
  c_scheduled : Obs.Counter.t;
  c_fired : Obs.Counter.t;
  c_cancelled : Obs.Counter.t;
}

and handle = {
  eng : t;
  fire : t -> unit;
  period : Time.t option;
  mutable alive : bool;
  mutable key : Key.t option; (* the queued firing, if any *)
  mutable next_at : Time.t;
}

let create () =
  let obs = Obs.create () in
  let counter name = Obs.Registry.counter (Obs.registry obs) Obs.Sim name in
  {
    clock = Time.zero;
    queue = Q.empty;
    next_seq = 0;
    processed = 0;
    obs;
    c_scheduled = counter "engine.scheduled";
    c_fired = counter "engine.fired";
    c_cancelled = counter "engine.cancelled";
  }

let now t = t.clock
let obs t = t.obs

(* Every push takes a sequence number, even a dead handle's re-arm
   (a periodic cancelled from inside its own callback), which queues
   nothing. *)
let push t h ~at =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if h.alive then begin
    t.queue <- Q.add (at, seq) h t.queue;
    h.key <- Some (at, seq);
    Obs.Counter.incr t.c_scheduled
  end

let make t ~period ~at f =
  let h = { eng = t; fire = f; period; alive = true; key = None; next_at = at } in
  push t h ~at;
  h

let schedule t ~at f =
  if Time.compare at t.clock < 0 then invalid_arg "Ref_engine.schedule";
  make t ~period:None ~at f

let every t ~period ?start f =
  let at = match start with Some s -> s | None -> Time.add t.clock period in
  make t ~period:(Some period) ~at f

let cancel h =
  if h.alive then begin
    h.alive <- false;
    match h.key with
    | Some k ->
      h.eng.queue <- Q.remove k h.eng.queue;
      h.key <- None;
      Obs.Counter.incr h.eng.c_cancelled
    | None -> ()
  end

let step_until t ~horizon =
  match Q.min_binding_opt t.queue with
  | Some (((at, _) as k), h) when Time.compare at horizon <= 0 ->
    t.queue <- Q.remove k t.queue;
    h.key <- None;
    t.clock <- at;
    t.processed <- t.processed + 1;
    Obs.Counter.incr t.c_fired;
    h.fire t;
    Option.iter
      (fun p ->
        h.next_at <- Time.add h.next_at p;
        push t h ~at:h.next_at)
      h.period;
    true
  | _ -> false

let step t = step_until t ~horizon:Time.infinity

let run ?(until = Time.infinity) t =
  while step_until t ~horizon:until do
    ()
  done

let pending t = Q.cardinal t.queue
let events_processed t = t.processed

type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ?(capacity = 16) ~dummy () =
  { data = Array.make (max capacity 1) dummy; len = 0; dummy }

let length v = v.len

let ensure v n =
  if n > Array.length v.data then begin
    let cap = ref (Array.length v.data) in
    while !cap < n do
      cap := !cap * 2
    done;
    let data = Array.make !cap v.dummy in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end

let push v x =
  ensure v (v.len + 1);
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get";
  v.data.(i)

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set";
  v.data.(i) <- x

let clear v = v.len <- 0

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let to_list v =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (v.data.(i) :: acc) in
  loop (v.len - 1) []

let to_array v = Array.sub v.data 0 v.len

let of_list ~dummy l =
  let v = create ~dummy () in
  List.iter (push v) l;
  v

let last v = if v.len = 0 then invalid_arg "Vec.last" else v.data.(v.len - 1)

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

module Int_vec = struct
  type t = { mutable data : int array; mutable len : int }

  let create ?(capacity = 16) () = { data = Array.make (max capacity 1) 0; len = 0 }
  let length v = v.len

  let ensure v n =
    if n > Array.length v.data then begin
      let cap = ref (Array.length v.data) in
      while !cap < n do
        cap := !cap * 2
      done;
      let data = Array.make !cap 0 in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end

  let push v x =
    ensure v (v.len + 1);
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let get v i =
    if i < 0 || i >= v.len then invalid_arg "Int_vec.get";
    v.data.(i)

  let to_array v = Array.sub v.data 0 v.len

  let fold_left f acc v =
    let acc = ref acc in
    for i = 0 to v.len - 1 do
      acc := f !acc v.data.(i)
    done;
    !acc
end

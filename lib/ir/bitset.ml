type t = int array

let word_bits = Sys.int_size

let create n = Array.make ((n + word_bits - 1) / word_bits) 0

let add s i =
  if i < 0 then invalid_arg "Bitset.add: negative element";
  s.(i / word_bits) <- s.(i / word_bits) lor (1 lsl (i mod word_bits))

let mem s i = i >= 0 && s.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

let fold f s acc =
  let acc = ref acc in
  Array.iteri
    (fun w word ->
      let word = ref word and bit = ref 0 in
      while !word <> 0 do
        if !word land 1 <> 0 then acc := f ((w * word_bits) + !bit) !acc;
        word := !word lsr 1;
        incr bit
      done)
    s;
  !acc
